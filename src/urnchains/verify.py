"""Property suite: every structural law of the package checked at desk scale.

Each check is one report row: its name, the equation it verifies (a
self-describing law string), the sizes it ran at, and the worst deviation
found.  The law of every name is written once, in the table `_LAWS`, and
`_check` builds the rows from it: a row passes when its deviation is at most
its tolerance, zero unless a check states one, so exact checks must come out
at deviation zero; a refusal message never passes.  Only `damped-defect`,
which expects a defect, keeps its own pass test.  The CLI command
`verify-all` runs this suite and exits nonzero when any check fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from ._linalg import ONE, ZERO, compose, matmul, max_abs_diff
from .chains import (
    ChainError,
    build_dd_chain,
    cone_from_top,
    expand_dd_cone,
    factor_delete_cone,
    lift_copointed_morphism,
    multinomial_cone,
    multinomial_diagonal,
    pad_index_bijection,
    pcoh_free_copointed,
    pcoh_ground_copointed,
    split_deviation,
    stoch_copointed,
    verify_tensor_parametrized,
    _random_stochastic_rows,
)
from .moments import (
    RECOVERY_TOL,
    MomentProblemError,
    refuse_oversized_recovery,
    bang_from_moments,
    check_totality,
    damp,
    embed_mixing_measure,
    moment_sequence,
    recover_measure,
    verify_embedding_squares,
)
from .multiset import BOOL, Alphabet, enumerate_multisets, multinomial
from .optim import LinearProgram, LpError, solve
from .pcoh import (
    PcsMatrix,
    PcsVector,
    bool_pcs,
    ground_pcs,
    multinomial_embedding,
    multiset_pcs,
)
from .spaces import symbol_space
from .stoch import (
    AtomicMeasure,
    FinKernel,
    ProbVector,
    symmetrization_average,
    verify_equalises,
)


# cap on (k+1)^n, the level-n tuple space over k symbols and the pad, for
# --depth and --eq-depth: on t,f both finish within 60 s up to n = 11 (49.8 s
# and 30.9 s on a 2-vCPU VM) and run past it at n = 12
MAX_TUPLES = 3**11


@dataclass
class Config:
    alphabet: Alphabet = BOOL
    depth: int = 4
    eq_depth: int = 5
    cone_samples: int = 20
    tensor_samples: int = 6
    grid: int = 16
    recovery_tol: float = RECOVERY_TOL
    seed: int = 0
    inject_fault: bool = False

    def __post_init__(self):
        # a depth-0 bang element has no recurrence to break, so the
        # damped-defect check would report a false failure
        if self.depth < 1:
            raise ValueError("verify-all needs --depth at least 1: a depth-0 chain has no step to check")
        # recover_measure refuses a grid below 2, and grid 0 has no on-grid point
        least = (
            ("--grid", 2, self.grid),
            ("--eq-depth", 0, self.eq_depth),
            ("--cone-samples", 0, self.cone_samples),
            ("--tensor-samples", 0, self.tensor_samples),
        )
        for flag, bound, value in least:
            if value < bound:
                raise ValueError(f"verify-all needs {flag} at least {bound}, not {value}")
        k = len(self.alphabet)
        for flag, n in (("--depth", self.depth), ("--eq-depth", self.eq_depth)):
            # past n = 64, (k+1)^n passes the cap, and a huge n must not build a huge int
            if (k + 1) ** min(n, 64) > MAX_TUPLES:
                raise ValueError(
                    f"verify-all {flag} {n} on {k} symbols reaches more than the {MAX_TUPLES}"
                    f" tuples of its cap; lower {flag}"
                )
        refuse_oversized_recovery(k, self.depth, self.grid, "lower --depth")
        if not 0 < self.recovery_tol < math.inf:
            raise ValueError(
                f"verify-all needs --tol to be a finite positive number, not {self.recovery_tol}"
            )


@dataclass
class CheckResult:
    name: str
    law: str
    params: dict
    deviation: object
    passed: bool
    witness: str | None = None

    def to_json(self) -> dict:
        data = {
            "check": self.name,
            "law": self.law,
            "params": self.params,
            "deviation": str(self.deviation),
            "passed": self.passed,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        return data


@dataclass
class Report:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


# what the library raises when it refuses to build or solve something
_REFUSALS = (ChainError, MomentProblemError, LpError, ValueError)


def _or_refusal(run):
    """run(), or the message of the refusal it meets: a refused check fails
    with the refusal as its deviation, never with a traceback."""
    try:
        return run()
    except _REFUSALS as exc:
        return str(exc)


# the law each check verifies, by check name, in report order
_LAWS = {
    "multiset-partition": "sum over size-n multisets of multinomial(mu) = k^n",
    "multiset-order": "enumeration is strictly descending and duplicate-free",
    "eq-sigma-invariance": "sigma . eq_n = eq_n for every coordinate symmetry",
    "eq-coeq-identity": "coeq_n . eq_n = id on multisets",
    "symmetrization-average": "eq_n . coeq_n = (1/n!) sum_sigma sigma",
    "delta-eq-split": "section_n . eq_n = id on multisets (delta coordinates)",
    "dd-universal-solve": "closed-form DD equals the unique solution of the defining square",
    "defining-square": "DD_n . eq_n = eq_{n+1} . (id^n (x) w)",
    "chain-morphism-square": "DD_n^target . component_{n+1} = component_n . DD_n^source",
    "multinomial-embedding": "lifted component equals multinomial(mu - nu) on included nu",
    "coordinate-conjugation": "DD_stoch = diag(1/multinomial) . DD_delta . diag(multinomial)",
    "iid-urn-cone": "multinomial_law(r, n) = DD_n . multinomial_law(r, n+1)",
    "cone-round-trip": "factor and expand are mutually inverse on cones",
    "tensor-parametrized": "equaliser factorisation and cone round trips commute with (x) Y",
    "embedding-square": "restrict(embed(mixing), n) = level law . multinomial embedding",
    "embed-total": "embeddings of probability mixings satisfy the totality recurrence",
    "damped-defect": "damping by p breaks totality with defect (1-p) at the empty multiset",
    "moment-round-trip": "rebuilding the table from pure moments is the identity on total elements",
    "vertex-recovery": "vertex-atom mixings are recovered with zero residual in exact mode",
    "grid-recovery": "recovery of an on-grid mixing meets the residual tolerance",
    "ground-membership": "subdistributions are inside; witness for mass 3/2 is the all-ones dual",
    "symmetric-power-membership": "the tally image of a product square lies in the symmetric power",
    "lp-mode-agreement": "exact and float simplex agree on randomized instances",
}


def _check(name, params, deviation, tol=0, witness=None) -> CheckResult:
    """The report row of check `name`: it passes when its deviation is not a
    refusal message and is at most `tol`."""
    passed = not isinstance(deviation, str) and deviation <= tol
    return CheckResult(name, _LAWS[name], params, deviation, passed, witness)


# -- combinatorics -------------------------------------------------------------

def multiset_checks(config: Config) -> list[CheckResult]:
    out = []
    k = len(config.alphabet)
    for n in range(config.eq_depth + 1):
        msets = enumerate_multisets(config.alphabet, n)
        total = sum(multinomial(m) for m in msets)
        out.append(_check("multiset-partition", {"n": n, "k": k}, abs(total - k**n)))
        sorted_ok = all(msets[i] > msets[i + 1] for i in range(len(msets) - 1))
        out.append(_check("multiset-order", {"n": n, "k": k}, 0 if sorted_ok else 1))
    return out


# -- equaliser laws -------------------------------------------------------------

# the chains the suite builds, by report label
_COPOINTED = {
    "stoch": stoch_copointed,
    "pcoh-definetti": pcoh_ground_copointed,
    "pcoh-bang": lambda alphabet: pcoh_free_copointed(ground_pcs(alphabet)),
}

# per coordinate system: the chain holding its equalisers, its report label,
# and the name of its split check
_COORDINATES = (
    ("stoch", "stoch", "eq-coeq-identity"),
    ("pcoh-definetti", "pcoh", "delta-eq-split"),
)


def equaliser_checks(config: Config, chains) -> list[CheckResult]:
    """Invariance and split laws of eq_n in both coordinate systems: on the
    chain's maps up to its depth, else on the maps its backend builds."""
    out = []
    alphabet = config.alphabet
    for n in range(config.eq_depth + 1):
        for label, coordinates, split_name in _COORDINATES:
            chain = chains.get(label)
            if chain is not None and n <= chain.depth:
                eq, section = chain.eqs[n], chain.sections[n]
            else:
                backend = _COPOINTED[label](alphabet).backend
                eq, section = backend.equaliser(alphabet, n), backend.splitting(alphabet, n)
            rep = verify_equalises(eq, n)
            witness = str(rep.witness_perm) if rep.witness_perm else None
            params = {"n": n, "backend": coordinates}
            out.append(_check("eq-sigma-invariance", params, rep.max_deviation, witness=witness))
            out.append(_check(split_name, {"n": n}, split_deviation(eq, section)))
            if coordinates == "stoch":
                deviation = compose(section, eq).deviation(symmetrization_average(alphabet, n))
                out.append(_check("symmetrization-average", {"n": n}, deviation))
    return out


# -- chains ----------------------------------------------------------------------

def _tamper(chain) -> None:
    # reverse the first row of the level-1 step (level 0 at depth 1) so
    # exactly one square breaks; halve it where reversing leaves it unchanged
    level = min(1, chain.depth - 1)
    dd = chain.dds[level]
    last = len(dd.target) - 1
    first = {last - j: v for j, v in reversed(dd.entries[0].items())}
    if first == dd.entries[0]:
        first = {j: v / 2 for j, v in first.items()}
    chain.dds[level] = FinKernel(dd.source, dd.target, (first,) + dd.entries[1:])


def chain_checks(config: Config):
    out = []
    alphabet = config.alphabet
    chains = {}
    for label, copointed in _COPOINTED.items():
        chain = _or_refusal(lambda: build_dd_chain(copointed(alphabet), config.depth))
        built = not isinstance(chain, str)
        params = {"backend": label, "depth": config.depth}
        out.append(_check("dd-universal-solve", params, ZERO if built else chain))
        if not built:
            continue
        if label == "stoch" and config.inject_fault:
            _tamper(chain)
        for level, dev in enumerate(chain.validate()):
            out.append(_check("defining-square", {"backend": label, "level": level}, dev))
        chains[label] = chain
    return out, chains


def morphism_checks(config: Config, chains) -> list[CheckResult]:
    out = []
    alphabet = config.alphabet
    if "pcoh-definetti" not in chains or "pcoh-bang" not in chains:
        return out
    chg, chb = chains["pcoh-definetti"], chains["pcoh-bang"]
    pad = chb.backend.carrier.labels[-1]
    alpha = PcsMatrix.build(
        chg.backend.carrier, chb.backend.carrier, lambda symbol: {symbol: ONE, pad: ONE}
    )
    morphism = "pairing of identity and weakening"
    lift = _or_refusal(lambda: lift_copointed_morphism(alpha, chg, chb))
    if isinstance(lift, str):
        # a refused lift has no squares: its row states what was refused
        row = _check("chain-morphism-square", {"morphism": morphism}, lift)
        out.append(replace(row, law="alpha lifts to a chain morphism"))
    else:
        for level, dev in enumerate(lift.validate()):
            out.append(_check("chain-morphism-square", {"level": level, "morphism": morphism}, dev))
        for n in range(config.depth + 1):
            emb = multinomial_embedding(alphabet, n)
            _, _, mapping = pad_index_bijection(alphabet, n)
            comp = tuple({i: row[j] for i, j in enumerate(mapping) if j in row} for row in lift.components[n].entries)
            out.append(_check("multinomial-embedding", {"n": n}, max_abs_diff(emb.entries, comp)))
    if "stoch" in chains and not config.inject_fault:
        chs = chains["stoch"]
        for n in range(config.depth):
            diag_n = multinomial_diagonal(alphabet, n)
            diag_n1 = multinomial_diagonal(alphabet, n + 1)
            inv = tuple({j: 1 / v for j, v in row.items()} for row in diag_n1.entries)
            conj = matmul(matmul(inv, chg.dds[n].entries), diag_n.entries)
            deviation = max_abs_diff(conj, chs.dds[n].entries)
            out.append(_check("coordinate-conjugation", {"n": n}, deviation))
    return out


def cone_checks(config: Config, chains) -> list[CheckResult]:
    out = []
    rng = random.Random(config.seed)
    alphabet = config.alphabet
    k = len(alphabet)
    weights = [Fraction(i + 1, k * (k + 1) // 2) for i in range(k)]
    r = ProbVector(alphabet, tuple(weights))
    if "stoch" in chains and not config.inject_fault:
        chain = chains["stoch"]
        deviation = _or_refusal(lambda: multinomial_cone(r, chain).deviation())
        out.append(_check("iid-urn-cone", {"depth": chain.depth, "r": str(r.weights)}, deviation))
        built = {label: chains[label] for label in ("stoch", "pcoh-definetti") if label in chains}
        samples = config.cone_samples
        for label, chain in built.items():
            dev = _or_refusal(lambda: _round_trip_deviation(rng, chain, config))
            out.append(_check("cone-round-trip", {"backend": label, "samples": samples}, dev))
        y = symbol_space(BOOL)  # the parameter Y
        samples, seed = config.tensor_samples, config.seed
        for label, chain in built.items():
            dev = _or_refusal(
                lambda: max(verify_tensor_parametrized(chain, y, samples, seed), default=ZERO)
            )
            out.append(_check("tensor-parametrized", {"backend": label, "samples": samples}, dev))
    return out


def _round_trip_deviation(rng, chain, config):
    """Worst deviation of factor and expand from inverting each other.

    A random top leg T closes down the steps DD_n into a DD-cone D, and
    T . eq_N down the delete maps d_n = id^n (x) w into a symmetric
    delete-cone S.  The defining squares DD_n . eq_n = eq_{n+1} . d_n, which
    `build_dd_chain` proves exactly, give expand(D) = S, so one expand and one
    factor check both round trips: expand(D) = S and factor(S) = D hold iff
    factor(expand(D)) = D and expand(factor(S)) = S.
    """
    worst = ZERO
    top_eq = chain.eqs[chain.depth].entries
    for _ in range(config.cone_samples):
        top = _random_stochastic_rows(rng, 1, len(top_eq))
        dd_cone = cone_from_top(chain, top, "dd")
        del_cone = cone_from_top(chain, matmul(top, top_eq), "delete")
        expanded, back = expand_dd_cone(dd_cone), factor_delete_cone(del_cone)
        pairs = zip(expanded.legs + back.legs, del_cone.legs + dd_cone.legs)
        worst = max(worst, *(max_abs_diff(a, b) for a, b in pairs))
    return worst


# -- moments ------------------------------------------------------------------------

def moment_checks(config: Config) -> list[CheckResult]:
    out = []
    alphabet = config.alphabet
    rng = random.Random(config.seed + 1)
    k = len(alphabet)

    def rational_point():
        cuts = [0, *sorted(rng.randint(0, 12) for _ in range(k - 1)), 12]
        return ProbVector(alphabet, tuple(Fraction(b - a, 12) for a, b in zip(cuts, cuts[1:])))

    def residual(b, grid, mode):
        return _or_refusal(lambda: recover_measure(b, grid, tol=config.recovery_tol, mode=mode).residual)

    mixing = AtomicMeasure.of((rational_point(), Fraction(1, 3)), (rational_point(), Fraction(2, 3)))
    deviation = max(verify_embedding_squares(mixing, config.depth))
    out.append(_check("embedding-square", {"depth": config.depth, "atoms": 2}, deviation))
    b = embed_mixing_measure(mixing, config.depth)
    # the table is exact, so a zero defect is what check_totality calls total
    out.append(_check("embed-total", {"depth": config.depth}, check_totality(b).defect))
    p = Fraction(1, 2)
    rep = check_totality(damp(b, p))
    # the worst defect is (1-p) * 1, at the empty multiset
    passed = not rep.total and rep.defect == 1 - p and rep.witness == (0,) * k
    law, witness = _LAWS["damped-defect"], str(rep.witness)
    out.append(CheckResult("damped-defect", law, {"p": str(p)}, rep.defect, passed, witness))
    if k == 2:
        rt = bang_from_moments(moment_sequence(b), alphabet)
        deviation = max(abs(x - y) for x, y in zip(rt.coeffs, b.coeffs))
        out.append(_check("moment-round-trip", {"depth": config.depth}, deviation))
    vertex_mixing = AtomicMeasure.of(
        (ProbVector(alphabet, tuple(Fraction(1) if i == 0 else ZERO for i in range(k))), Fraction(1, 3)),
        (ProbVector(alphabet, tuple(Fraction(1) if i == k - 1 else ZERO for i in range(k))), Fraction(2, 3)),
    )
    bv = embed_mixing_measure(vertex_mixing, config.depth)
    out.append(_check("vertex-recovery", {"grid": config.grid}, residual(bv, config.grid, "exact")))
    g = config.grid
    base, rem = divmod(g, k)
    counts = [base + 1] * rem + [base] * (k - rem)
    on_grid = ProbVector(alphabet, tuple(Fraction(c, g) for c in counts))
    bh = embed_mixing_measure(AtomicMeasure.dirac(on_grid), config.depth)
    tol = config.recovery_tol
    out.append(_check("grid-recovery", {"grid": g, "tol": tol}, residual(bh, g, "float"), tol))
    return out


# -- membership -----------------------------------------------------------------------

def membership_checks(config: Config) -> list[CheckResult]:
    out = []
    ground = bool_pcs()
    inside = ground.contains(PcsVector.of(ground.web, "1/2", "1/4"))
    over = ground.contains(PcsVector.of(ground.web, 1, "1/2"))
    ok = (
        inside.inside
        and not over.inside
        and over.optimum == Fraction(3, 2)
        and over.witness is not None
        and all(v == 1 for v in over.witness.coeffs)
    )
    out.append(_check("ground-membership", {}, ZERO if ok else 1))
    m2 = multiset_pcs(ground, 2)
    binom = m2.contains(PcsVector.of(m2.web, "1/4", "1/2", "1/4"))
    # outside the symmetric power the optimum is above 1, so the row fails
    deviation = ZERO if binom.inside else binom.optimum
    out.append(_check("symmetric-power-membership", {"n": 2}, deviation))
    rng = random.Random(config.seed + 2)
    worst = 0.0
    for _ in range(10):
        n = 3
        c = [Fraction(rng.randint(0, 8), 8) for _ in range(n)]
        rows = [[Fraction(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(4)]
        rows.append([Fraction(1)] * n)  # keep it bounded
        b = [Fraction(rng.randint(1, 4), 2) for _ in range(5)]
        lp = LinearProgram(tuple(c), tuple(map(tuple, rows)), tuple(b), mode="exact")
        exact = solve(lp)
        approx = solve(replace(lp, mode="float"))
        if not (exact.optimal and approx.optimal):
            # every instance is feasible and bounded, so both must be optimal
            worst = f"exact solve {exact.status}, float solve {approx.status}"
            break
        worst = max(worst, abs(float(exact.value) - approx.value))
    out.append(_check("lp-mode-agreement", {"instances": 10}, worst, 1e-7))
    return out


def run_all_checks(config: Config | None = None) -> Report:
    config = config or Config()
    chain_results, chains = chain_checks(config)
    checks = multiset_checks(config) + equaliser_checks(config, chains) + chain_results
    checks.extend(morphism_checks(config, chains))
    checks.extend(cone_checks(config, chains))
    checks.extend(moment_checks(config))
    checks.extend(membership_checks(config))
    return Report(checks)
