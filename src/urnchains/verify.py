"""Property suite: every structural law of the package checked at desk scale.

Each check records the equation it verifies (as a self-describing law
string), the sizes it ran at, and the worst deviation found; exact-mode
checks must come out at deviation zero.  The CLI command `verify-all` runs
this suite and exits nonzero when any check fails.
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
from .spaces import symbol_space, unit_space
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


def _exact_check(name, law, params, deviation, witness=None) -> CheckResult:
    return CheckResult(name, law, params, deviation, deviation == 0, witness)


def _bounded_check(name, law, params, deviation, tol, witness=None) -> CheckResult:
    passed = not isinstance(deviation, str) and deviation <= tol
    return CheckResult(name, law, params, deviation, passed, witness)


# -- combinatorics -------------------------------------------------------------

def multiset_checks(config: Config) -> list[CheckResult]:
    out = []
    k = len(config.alphabet)
    for n in range(config.eq_depth + 1):
        msets = enumerate_multisets(config.alphabet, n)
        total = sum(multinomial(m) for m in msets)
        out.append(
            _exact_check(
                "multiset-partition",
                "sum over size-n multisets of multinomial(mu) = k^n",
                {"n": n, "k": k},
                abs(total - k**n),
            )
        )
        sorted_ok = all(msets[i] > msets[i + 1] for i in range(len(msets) - 1))
        out.append(
            _exact_check(
                "multiset-order",
                "enumeration is strictly descending and duplicate-free",
                {"n": n, "k": k},
                0 if sorted_ok else 1,
            )
        )
    return out


# -- equaliser laws -------------------------------------------------------------

# the chains the suite builds, by report label
_COPOINTED = {
    "stoch": stoch_copointed,
    "pcoh-definetti": pcoh_ground_copointed,
    "pcoh-bang": lambda alphabet: pcoh_free_copointed(ground_pcs(alphabet)),
}

# per coordinate system: the chain holding its equalisers, its report label,
# and the name and law of its split check
_COORDINATES = (
    ("stoch", "stoch", "eq-coeq-identity", "coeq_n . eq_n = id on multisets"),
    ("pcoh-definetti", "pcoh", "delta-eq-split", "section_n . eq_n = id on multisets (delta coordinates)"),
)


def equaliser_checks(config: Config, chains) -> list[CheckResult]:
    """Invariance and split laws of eq_n in both coordinate systems: on the
    chain's maps up to its depth, else on the maps its backend builds."""
    out = []
    alphabet = config.alphabet
    for n in range(config.eq_depth + 1):
        for label, coordinates, split_name, split_law in _COORDINATES:
            chain = chains.get(label)
            if chain is not None and n <= chain.depth:
                eq, section = chain.eqs[n], chain.sections[n]
            else:
                backend = _COPOINTED[label](alphabet).backend
                eq, section = backend.equaliser(alphabet, n), backend.splitting(alphabet, n)
            rep = verify_equalises(eq, n)
            out.append(
                _exact_check(
                    "eq-sigma-invariance",
                    "sigma . eq_n = eq_n for every coordinate symmetry",
                    {"n": n, "backend": coordinates},
                    rep.max_deviation,
                    witness=str(rep.witness_perm) if rep.witness_perm else None,
                )
            )
            out.append(_exact_check(split_name, split_law, {"n": n}, split_deviation(eq, section)))
            if coordinates == "stoch":
                out.append(
                    _exact_check(
                        "symmetrization-average",
                        "eq_n . coeq_n = (1/n!) sum_sigma sigma",
                        {"n": n},
                        compose(section, eq).deviation(symmetrization_average(alphabet, n)),
                    )
                )
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
        out.append(
            _exact_check(
                "dd-universal-solve",
                "closed-form DD equals the unique solution of the defining square",
                {"backend": label, "depth": config.depth},
                ZERO if built else chain,
            )
        )
        if not built:
            continue
        if label == "stoch" and config.inject_fault:
            _tamper(chain)
        for check in chain.validate():
            out.append(
                _exact_check(
                    "defining-square",
                    check.law,
                    {"backend": label, "level": check.level},
                    check.deviation,
                )
            )
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
        law = "alpha lifts to a chain morphism"
        out.append(_exact_check("chain-morphism-square", law, {"morphism": morphism}, lift))
    else:
        for check in lift.validate():
            out.append(
                _exact_check(
                    "chain-morphism-square",
                    check.law,
                    {"level": check.level, "morphism": morphism},
                    check.deviation,
                )
            )
        for n in range(config.depth + 1):
            emb = multinomial_embedding(alphabet, n)
            _, _, mapping = pad_index_bijection(alphabet, n)
            comp = tuple({i: row[j] for i, j in enumerate(mapping) if j in row} for row in lift.components[n].entries)
            out.append(
                _exact_check(
                    "multinomial-embedding",
                    "lifted component equals multinomial(mu - nu) on included nu",
                    {"n": n},
                    max_abs_diff(emb.entries, comp),
                )
            )
    if "stoch" in chains and not config.inject_fault:
        chs = chains["stoch"]
        for n in range(config.depth):
            diag_n = multinomial_diagonal(alphabet, n)
            diag_n1 = multinomial_diagonal(alphabet, n + 1)
            inv = tuple({j: 1 / v for j, v in row.items()} for row in diag_n1.entries)
            conj = matmul(matmul(inv, chg.dds[n].entries), diag_n.entries)
            out.append(
                _exact_check(
                    "coordinate-conjugation",
                    "DD_stoch = diag(1/multinomial) . DD_delta . diag(multinomial)",
                    {"n": n},
                    max_abs_diff(conj, chs.dds[n].entries),
                )
            )
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
        out.append(
            _exact_check(
                "iid-urn-cone",
                "multinomial_law(r, n) = DD_n . multinomial_law(r, n+1)",
                {"depth": chain.depth, "r": str(r.weights)},
                _or_refusal(lambda: multinomial_cone(r, chain).deviation()),
            )
        )
        built = [label for label in ("stoch", "pcoh-definetti") if label in chains]
        for backend_label in built:
            out.append(
                _exact_check(
                    "cone-round-trip",
                    "factor and expand are mutually inverse on cones",
                    {"backend": backend_label, "samples": config.cone_samples},
                    _or_refusal(lambda: _round_trip_deviation(rng, chains[backend_label], config)),
                )
            )
        y_space = symbol_space(Alphabet.of("t", "f"))
        for backend_label in built:
            checks = _or_refusal(
                lambda: verify_tensor_parametrized(
                    chains[backend_label], y_space, config.tensor_samples, config.seed
                )
            )
            deviation = checks if isinstance(checks, str) else max((c.deviation for c in checks), default=ZERO)
            out.append(
                _exact_check(
                    "tensor-parametrized",
                    "equaliser factorisation and cone round trips commute with (x) Y",
                    {"backend": backend_label, "samples": config.tensor_samples},
                    deviation,
                )
            )
    return out


def _round_trip_deviation(rng, chain, config):
    """Worst deviation of factor-then-expand and expand-then-factor over
    random DD-cones and the symmetric delete-cones they present."""
    worst = ZERO
    for s in range(config.cone_samples):
        top = _random_leg(rng, chain)
        dd_cone = cone_from_top(chain, top, "dd")
        expanded = expand_dd_cone(dd_cone)
        back = factor_delete_cone(expanded)
        dev = max(a.deviation(b) for a, b in zip(back.legs, dd_cone.legs))
        worst = max(worst, dev)
        # opposite direction: random symmetric delete-cone
        sym_top = chain.backend.matrix(
            top.source,
            chain.backend.power(chain.depth),
            matmul(top.entries, chain.eqs[chain.depth].entries),
        )
        del_cone = cone_from_top(chain, sym_top, "delete")
        dd2 = factor_delete_cone(del_cone)
        expanded2 = expand_dd_cone(dd2)
        dev2 = max(
            max_abs_diff(a.entries, b.entries)
            for a, b in zip(expanded2.legs, del_cone.legs)
        )
        worst = max(worst, dev2)
    return worst


def _random_leg(rng, chain):
    level = chain.backend.level(chain.depth)
    raw = [Fraction(rng.randint(0, 9)) for _ in range(len(level))]
    total = sum(raw) or Fraction(1)
    row = {j: v / total for j, v in enumerate(raw) if v}
    return chain.backend.matrix(unit_space(), level, (row,))


# -- moments ------------------------------------------------------------------------

def moment_checks(config: Config) -> list[CheckResult]:
    out = []
    alphabet = config.alphabet
    rng = random.Random(config.seed + 1)
    k = len(alphabet)

    def rational_point():
        cuts = sorted(rng.randint(0, 12) for _ in range(k - 1))
        parts = []
        prev = 0
        for c in cuts:
            parts.append(Fraction(c - prev, 12))
            prev = c
        parts.append(Fraction(12 - prev, 12))
        return ProbVector(alphabet, tuple(parts))

    def residual(b, grid, mode):
        return _or_refusal(lambda: recover_measure(b, grid, tol=config.recovery_tol, mode=mode).residual)

    mixing = AtomicMeasure.of((rational_point(), Fraction(1, 3)), (rational_point(), Fraction(2, 3)))
    checks = verify_embedding_squares(mixing, config.depth)
    out.append(
        _exact_check(
            "embedding-square",
            "restrict(embed(mixing), n) = level law . multinomial embedding",
            {"depth": config.depth, "atoms": 2},
            max(c.deviation for c in checks),
        )
    )
    b = embed_mixing_measure(mixing, config.depth)
    rep = check_totality(b)
    out.append(
        CheckResult(
            "embed-total",
            "embeddings of probability mixings satisfy the totality recurrence",
            {"depth": config.depth},
            rep.defect,
            rep.total,
        )
    )
    p = Fraction(1, 2)
    damped = damp(b, p)
    rep2 = check_totality(damped)
    expected = (1 - p) * 1  # worst defect is at the empty multiset
    out.append(
        CheckResult(
            "damped-defect",
            "damping by p breaks totality with defect (1-p) at the empty multiset",
            {"p": str(p)},
            rep2.defect,
            (not rep2.total) and rep2.defect == expected and rep2.witness == (0,) * k,
            witness=str(rep2.witness),
        )
    )
    if k == 2:
        mt = moment_sequence(b)
        rt = bang_from_moments(mt, alphabet)
        out.append(
            _exact_check(
                "moment-round-trip",
                "rebuilding the table from pure moments is the identity on total elements",
                {"depth": config.depth},
                max(abs(x - y) for x, y in zip(rt.coeffs, b.coeffs)),
            )
        )
    vertex_mixing = AtomicMeasure.of(
        (ProbVector(alphabet, tuple(Fraction(1) if i == 0 else ZERO for i in range(k))), Fraction(1, 3)),
        (ProbVector(alphabet, tuple(Fraction(1) if i == k - 1 else ZERO for i in range(k))), Fraction(2, 3)),
    )
    bv = embed_mixing_measure(vertex_mixing, config.depth)
    out.append(
        _bounded_check(
            "vertex-recovery",
            "vertex-atom mixings are recovered with zero residual in exact mode",
            {"grid": config.grid},
            residual(bv, config.grid, "exact"),
            0,
        )
    )
    g = config.grid
    base, rem = divmod(g, k)
    on_grid = ProbVector(
        alphabet,
        tuple(Fraction(base + (1 if i < rem else 0), g) for i in range(k)),
    )
    bh = embed_mixing_measure(AtomicMeasure.dirac(on_grid), config.depth)
    out.append(
        _bounded_check(
            "grid-recovery",
            "recovery of an on-grid mixing meets the residual tolerance",
            {"grid": config.grid, "tol": config.recovery_tol},
            residual(bh, config.grid, "float"),
            config.recovery_tol,
        )
    )
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
    out.append(
        _exact_check(
            "ground-membership",
            "subdistributions are inside; witness for mass 3/2 is the all-ones dual",
            {},
            ZERO if ok else 1,
        )
    )
    m2 = multiset_pcs(ground, 2)
    binom = m2.contains(PcsVector.of(m2.web, "1/4", "1/2", "1/4"))
    out.append(
        CheckResult(
            "symmetric-power-membership",
            "the tally image of a product square lies in the symmetric power",
            {"n": 2},
            ZERO if binom.inside else binom.optimum,
            binom.inside,
        )
    )
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
        if exact.optimal and approx.optimal:
            worst = max(worst, abs(float(exact.value) - approx.value))
    out.append(
        _bounded_check(
            "lp-mode-agreement",
            "exact and float simplex agree on randomized instances",
            {"instances": 10},
            worst,
            1e-7,
        )
    )
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
