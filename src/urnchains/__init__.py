"""Draw-and-delete urn chains over finite alphabets, in two presentations.

The kernel side builds exact substochastic matrices: equalisers of the
symmetry action on tuple spaces, the uniform remove-one urn step, multinomial
urn laws, and seeded Monte Carlo for exchangeable sequences.  The
coherence-space side builds the same chain in delta coordinates together
with the truncated exponential, promotions, and a totality test.  The
`chains` module ties both to one generic construction and verifies every
square exactly; `moments` solves the inverse problem of representing a total
element as a mixture of promotions via a grid linear program.

The API is the modules themselves; import names from them, for example
`from urnchains.chains import build_dd_chain`.
"""

__all__ = [
    "chains",
    "cli",
    "jsonio",
    "moments",
    "multiset",
    "optim",
    "pcoh",
    "spaces",
    "stoch",
    "verify",
]
__version__ = "0.1.0"
