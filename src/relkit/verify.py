"""The acceptance suite: named verification criteria over the catalog.

Each criterion returns {"passed": bool, "checks": [...]} where every
check is a (label, expected, got) record; the runner adds timing.  The
suite is deterministic: randomized selections use fixed seeds.
"""

from __future__ import annotations

import math
import random
import time

from . import catalog as cat
from .closure import k_closure
from .digraphs import (
    canonical_form,
    complete,
    composition,
    digraph_automorphism_group,
    direct_product,
    empty,
    enumerate_homogeneous_digraphs,
    small_homogeneous_catalog,
    sporadic_h0,
    sporadic_h1,
    sporadic_h2,
    undirected_cycle,
)
from .errors import BadParameter, CapExceeded
from .group import PermutationGroup
from .nonbinary import (
    diagonal_patch_witness,
    frobenius_test,
    run_battery,
    test1_character_bound,
)
from .oracle import NAIVE_MAX_DEGREE, naive_relational_complexity
from .perm import Permutation
from .relcomp import relational_complexity
from .stats import base_height_profile
from .structures import automorphism_group, canonical_structure, is_homogeneous, structural_rc


def _check(checks, label, expected, got):
    checks.append({"label": label, "expected": expected, "got": got,
                   "ok": expected == got})


def _result(checks):
    return {"passed": all(c["ok"] for c in checks), "checks": checks}


def _rc(group):
    value, _ = relational_complexity(group)
    return value


def criterion_rc_natural():
    """RC of natural symmetric and alternating actions."""
    checks = []
    for n in range(3, 9):
        _check(checks, f"RC(Sym({n}))", 2, _rc(cat.symmetric_natural(n).group))
    for n in range(4, 8):
        _check(checks, f"RC(Alt({n}))", n - 1, _rc(cat.alternating_natural(n).group))
    return _result(checks)


def criterion_rc_regular_binary():
    """Regular, dihedral and affine-orthogonal binary families."""
    checks = []
    for p in (5, 7, 11, 13):
        _check(checks, f"RC(C_{p})", 2, _rc(cat.cyclic_regular(p).group))
    for p in (5, 7, 11):
        _check(checks, f"RC(D_{2*p})", 2, _rc(cat.dihedral_polygon(p).group))
    _check(checks, "RC(affine minus-type plane, q=3)", 2,
           _rc(cat.affine_orthogonal(3, 2).group))
    return _result(checks)


def criterion_rc_k_subsets():
    """RC of actions on k-subsets."""
    checks = []
    for base, n, k, want in [("Sym", 6, 2, 3), ("Sym", 8, 4, 4), ("Alt", 5, 2, 3),
                             ("Alt", 6, 2, 4), ("Alt", 7, 3, 4)]:
        entry = cat.k_subsets_action(base, n, k)
        _check(checks, f"RC({base}({n}) on {k}-subsets)", want, _rc(entry.group))
    return _result(checks)


def criterion_rc_matchings():
    """RC of actions on perfect matchings."""
    checks = []
    for base, n2, want in [("Sym", 6, 3), ("Alt", 6, 4), ("Sym", 4, 2), ("Alt", 4, 2)]:
        entry = cat.matchings_action(base, n2)
        _check(checks, f"RC({base}({n2}) on matchings)", want, _rc(entry.group))
    return _result(checks)


def criterion_rc_product():
    """RC of two-letter product actions against the catalog's expected RC.

    The catalog records RC 2 for r <= 3, where the orbital structure is
    homogeneous, and the closed formula 2 + floor(log2 r) from r = 4 on.
    Where the naive oracle reaches, RC is also checked against it.
    """
    checks = []
    for r in (2, 3, 4):
        entry = cat.product_action(2, r)
        label = f"RC(product action, r={r}, degree {2**r})"
        rc = _rc(entry.group)
        _check(checks, label, entry.expected_rc, rc)
        if entry.group.degree <= NAIVE_MAX_DEGREE:
            _check(checks, f"{label} vs naive oracle",
                   naive_relational_complexity(entry.group), rc)
    return _result(checks)


def criterion_rc_intransitive():
    """RC of the natural-plus-sign intransitive actions."""
    checks = []
    for n in (3, 4, 5):
        _check(checks, f"RC(join({n}))", n, _rc(cat.intransitive_join(n).group))
    return _result(checks)


def criterion_stat_chain():
    """b <= B <= H <= I <= b*ceil(log2 t) and RC <= H+1 on the catalog."""
    checks = []
    for entry in cat.default_entries():
        t = entry.group.degree
        if t > 30:
            continue
        p = base_height_profile(entry.group)
        bound = p.b * max(1, math.ceil(math.log2(t))) if t > 1 else 0
        _check(checks, f"chain {entry.label}", True, p.b <= p.B <= p.H <= p.I <= bound)
        _check(checks, f"RC<=H+1 {entry.label}", True, _rc(entry.group) <= p.H + 1)
    return _result(checks)


def criterion_height_bound():
    """H < 9 log2(t) for primitive entries outside the subset-product family."""
    checks = []
    for entry in cat.default_entries():
        if entry.in_subset_product_family:
            continue
        if not entry.group.is_transitive():
            continue
        primitive, _ = entry.group.is_primitive()
        if not primitive:
            continue
        profile = base_height_profile(entry.group)
        bound = 9 * math.log2(entry.group.degree) if entry.group.degree > 1 else 0
        _check(checks, f"H({entry.label}) < 9log2(t)", True, profile.H < bound)
    return _result(checks)


def criterion_test_soundness():
    """Battery verdicts agree with exact RC on small catalog entries."""
    checks = []
    for entry in cat.default_entries():
        if entry.group.degree > 15:
            continue
        rc = _rc(entry.group)
        outcomes = run_battery(entry.group, stop_at_first=False, trials=20000)
        for outcome in outcomes:
            if outcome.not_binary:
                _check(checks, f"{entry.label} {outcome.test_name} soundness",
                       True, rc > 2)
                _check(checks, f"{entry.label} {outcome.test_name} certificate",
                       True, outcome.verify(entry.group))
        if rc == 2:
            fired = [o.test_name for o in outcomes if o.not_binary]
            _check(checks, f"{entry.label} binary, no test fires", [], fired)
    alt5 = cat.alternating_natural(5).group
    out = test1_character_bound(alt5)
    _check(checks, "test1 flags Alt(5)", ("NotBinary", 4),
           (out.verdict, out.certificate.ell if out.certificate else None))
    for p in (5, 7):
        out = frobenius_test(cat.agl1(p).group)
        _check(checks, f"frobenius flags AGL1({p})", "NotBinary", out.verdict)
    return _result(checks)


def criterion_closure_identities():
    """2-closures of alternating groups, and closure == Aut(orbit structure)."""
    checks = []
    for n in (4, 5, 6):
        closure = k_closure(cat.alternating_natural(n).group, 2)
        _check(checks, f"2-closure(Alt({n})) = Sym({n})", math.factorial(n),
               closure.order())
    pool = [e for e in cat.default_entries() if e.group.degree <= 12]
    rng = random.Random(20260810)
    picks = [pool[rng.randrange(len(pool))] for _ in range(20)]
    for i, entry in enumerate(picks):
        closure = k_closure(entry.group, 2)
        aut = automorphism_group(canonical_structure(entry.group, 2))
        _check(checks, f"closure==Aut(orbit structure) #{i} {entry.label}",
               True, closure == aut)
    return _result(checks)


def criterion_homogeneity_aut():
    """Automorphism orders, homogeneity verdicts and the enumeration."""
    checks = []
    for label, graph, want in [
        ("H0", sporadic_h0(), 24),
        ("H1", sporadic_h1(), 16),
        ("H2", sporadic_h2(), 48),
        ("K3 x K3", direct_product(complete(3), complete(3)), 72),
    ]:
        _check(checks, f"|Aut({label})|", want, digraph_automorphism_group(graph).order())
    for n in (4, 5, 6):
        _check(checks, f"|Aut(cycle {n})|", 2 * n,
               digraph_automorphism_group(undirected_cycle(n)).order())
    homogeneous_cases = [("H0", sporadic_h0()), ("Delta5", undirected_cycle(5)),
                         ("K2[empty3]", composition(complete(2), empty(3)))]
    for n in range(1, 6):
        for graph in small_homogeneous_catalog(n):
            homogeneous_cases.append((f"family member n={n} edges={len(graph.edges)}", graph))
    for label, graph in homogeneous_cases:
        verdict, _ = is_homogeneous(graph.to_structure())
        _check(checks, f"homogeneous {label}", True, verdict)
    for n in (3, 4, 5):
        found = sorted(canonical_form(g) for g in enumerate_homogeneous_digraphs(n))
        expected = sorted(canonical_form(g) for g in small_homogeneous_catalog(n))
        _check(checks, f"enumeration n={n} matches classification", expected, found)
    return _result(checks)


def criterion_definition_equivalence():
    """Structural RC equals tuple RC on catalog entries of degree <= 6.

    Beyond the arity cap the structural search still certifies that no
    homogeneous orbit structure of arity <= 4 works, which is the
    cap-bounded half of the equivalence.
    """
    checks = []
    for entry in cat.default_entries():
        if entry.group.degree > 6:
            continue
        rc = _rc(entry.group)
        try:
            s = structural_rc(entry.group)
            _check(checks, f"structural == tuple RC {entry.label}", rc, s)
        except CapExceeded as exc:
            _check(checks, f"structural RC cap consistent {entry.label} (RC>{4})",
                   True, rc > 4 and exc.fallback == rc)
    return _result(checks)


def criterion_diagonal_patch():
    """Diagonal-type witness pairs for small nonabelian groups.

    The witness test is one-sided, so every NotBinary outcome must
    re-verify on the action.  Where the naive oracle reaches (Sym(3), on
    6 points) the verdict must be NotBinary exactly when RC > 2; that
    action is Sym(3) wr Sym(2) = Aut(K3,3), which is binary.  Alt(4) and
    Alt(5) must yield a verified witness.
    """
    checks = []
    for label, T in [("Sym(3)", cat.symmetric_natural(3).group),
                     ("Alt(4)", cat.alternating_natural(4).group),
                     ("Alt(5)", cat.alternating_natural(5).group)]:
        action = cat.diagonal_type_on_group(T).group
        outcome = diagonal_patch_witness(T)
        if outcome.not_binary:
            _check(checks, f"diagonal witness on {label} re-verifies",
                   True, outcome.verify(action))
        if action.degree <= NAIVE_MAX_DEGREE:
            _check(checks, f"diagonal verdict on {label} matches naive oracle",
                   naive_relational_complexity(action) > 2, outcome.not_binary)
        else:
            _check(checks, f"diagonal witness on {label}", True, outcome.not_binary)
    return _result(checks)


def criterion_oracle_equivalence():
    """Fast RC agrees with the naive oracle on small groups."""
    checks = []
    for entry in cat.default_entries():
        if entry.group.degree > 7:
            continue
        _check(checks, f"oracle {entry.label}",
               naive_relational_complexity(entry.group), _rc(entry.group))
    rng = random.Random(20260811)
    sym6 = cat.symmetric_natural(6).group
    elements = list(sym6.elements())
    for i in range(50):
        k = rng.randrange(1, 4)
        gens = [elements[rng.randrange(len(elements))] for _ in range(k)]
        group = PermutationGroup(6, gens)
        _check(checks, f"oracle random subgroup #{i} (order {group.order()})",
               naive_relational_complexity(group), _rc(group))
    return _result(checks)


CRITERIA = [
    (1, "rc-natural", criterion_rc_natural),
    (2, "rc-regular-binary", criterion_rc_regular_binary),
    (3, "rc-k-subsets", criterion_rc_k_subsets),
    (4, "rc-matchings", criterion_rc_matchings),
    (5, "rc-product-actions", criterion_rc_product),
    (6, "rc-intransitive", criterion_rc_intransitive),
    (7, "statistic-chain", criterion_stat_chain),
    (8, "height-bound", criterion_height_bound),
    (9, "test-soundness", criterion_test_soundness),
    (10, "closure-identities", criterion_closure_identities),
    (11, "homogeneity-aut", criterion_homogeneity_aut),
    (12, "definition-equivalence", criterion_definition_equivalence),
    (13, "diagonal-patch", criterion_diagonal_patch),
    (14, "oracle-equivalence", criterion_oracle_equivalence),
]


def run_criterion(number):
    for num, name, fn in CRITERIA:
        if num == number:
            start = time.monotonic()
            result = fn()
            result["seconds"] = round(time.monotonic() - start, 3)
            result["criterion"] = num
            result["name"] = name
            return result
    raise BadParameter(f"no criterion {number}")


def run_all(numbers=None, echo=print, jobs=1):
    """Run the selected criteria in list order, reporting each result
    through echo as it arrives; jobs > 1 runs them in worker processes,
    never more than there are criteria to run."""
    wanted = [num for num, _, _ in CRITERIA if numbers is None or num in numbers]
    workers = min(jobs, len(wanted))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _summarise(pool.map(run_criterion, wanted), echo)
    return _summarise(map(run_criterion, wanted), echo)


def _summarise(results, echo):
    summary = {"criteria": [], "all_passed": True}
    for result in results:  # input order, never completion order
        summary["criteria"].append(result)
        if not result["passed"]:
            summary["all_passed"] = False
        if echo is not None:
            status = "PASS" if result["passed"] else "FAIL"
            echo(f"{status} criterion {result['criterion']} ({result['name']})"
                 f" [{result['seconds']}s]")
            if not result["passed"]:
                for check in result["checks"]:
                    if not check["ok"]:
                        echo(f"     {check['label']}: expected {check['expected']},"
                             f" got {check['got']}")
    return summary
