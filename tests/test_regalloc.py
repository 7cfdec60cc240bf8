import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_distribution_error, random_program
from ionflow import oracle
from ionflow.ir import Vreg
from ionflow.predication import if_convert
from ionflow.regalloc import (
    PRESSURE_MESSAGE,
    InterferenceGraph,
    RegisterPressureExceeded,
    build_interference,
    color,
    compute_liveness,
    linearize,
    rewrite,
)


def vr(i: int) -> Vreg:
    return Vreg(f"v{i}")


# -- liveness ------------------------------------------------------------------

def guarded(src_body: str, qubits=3, results=3):
    from ionflow import textir

    src = f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\n{src_body}\n}}\n"
    return textir.parse(src).entry_function


def test_operands_live_at_use():
    fn = guarded("block e:\n  mz q0 -> r0\n  %a = read_result r0\n  %b = read_result r0\n  %c = and %a, %b\n  %d = and %c, %c\n  ret")
    gf = if_convert(fn)
    ranges = compute_liveness(gf)
    span = linearize(gf)[0]
    c_def = span.body_start + 3
    for name in ("a", "b"):
        s, e = ranges[Vreg(name)]
        assert s < c_def < e


def test_unused_def_gets_empty_range():
    fn = guarded("block e:\n  %a = add 1, 2\n  ret")
    gf = if_convert(fn)
    ranges = compute_liveness(gf)
    s, e = ranges[Vreg("a")]
    assert s == e


def test_guard_vreg_live_through_guarded_blocks():
    body = """
block entry:
  mz q0 -> r0
  %g = read_result r0
  br %g, a, done
block a:
  x q0
  y q0
  jmp done
block done:
  ret
"""
    fn = guarded(body)
    gf = if_convert(fn)
    ranges = compute_liveness(gf)
    spans = linearize(gf)
    a_span = next(s for s in spans if s.label == "a")
    s, e = ranges[Vreg("g")]
    # naive per-instruction scan oracle: last textual use is the branch, but
    # the predicate keeps %g alive through every instruction of block 'a'
    assert s < a_span.body_start and e >= a_span.body_end


# -- interference ---------------------------------------------------------------

def test_overlapping_ranges_interfere():
    g = build_interference({vr(0): (0, 5), vr(1): (3, 8)})
    assert frozenset((vr(0), vr(1))) in g.edges


def test_half_open_adjacent_ranges_do_not_interfere():
    g = build_interference({vr(0): (0, 3), vr(1): (3, 6)})
    assert not g.edges


def test_pairwise_overlap_makes_clique():
    m = 5
    ranges = {vr(i): (i, 10 + i) for i in range(m)}
    g = build_interference(ranges)
    assert len(g.edges) == m * (m - 1) // 2


# -- coloring ---------------------------------------------------------------------

def test_triangle_needs_three_colors():
    ranges = {vr(0): (0, 10), vr(1): (1, 10), vr(2): (2, 10)}
    g = build_interference(ranges)
    with pytest.raises(RegisterPressureExceeded) as ei:
        color(g, 2)
    assert ei.value.needed_hint >= 3
    assert PRESSURE_MESSAGE in str(ei.value)


def test_path_two_colorable():
    ranges = {vr(0): (0, 2), vr(1): (1, 3), vr(2): (2, 4), vr(3): (3, 5)}
    g = build_interference(ranges)
    rf = color(g, 2)
    for e in g.edges:
        a, b = tuple(e)
        assert rf.assignment[a] != rf.assignment[b]


def test_five_clique_with_four_registers_fails():
    ranges = {vr(i): (0, 10) for i in range(5)}
    with pytest.raises(RegisterPressureExceeded):
        color(build_interference(ranges), 4)


def max_overlap(ranges) -> int:
    """Brute force: the most live intervals covering one point."""
    ends = [e for _s, e in ranges.values()]
    return max(sum(1 for s, e in ranges.values() if s <= x < e) for x in range(max(ends, default=0) + 1))


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 12)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 12),
)
def test_coloring_random_intervals_is_valid(intervals, k):
    ranges = {vr(i): (s, s + d) for i, (s, d) in enumerate(intervals)}
    g = build_interference(ranges)
    depth = max_overlap(ranges)
    try:
        rf = color(g, k)
    except RegisterPressureExceeded as e:
        assert depth > k and e.needed_hint > k
        return
    assert depth <= k
    assert len(set(rf.assignment.values())) == depth  # optimal on interval graphs
    for e in g.edges:
        a, b = tuple(e)
        assert rf.assignment[a] != rf.assignment[b]


def test_coloring_deterministic():
    rng = random.Random(7)
    ranges = {}
    for i in range(25):
        s = rng.randint(0, 40)
        ranges[vr(i)] = (s, s + rng.randint(1, 12))
    g = build_interference(ranges)
    assert color(g, 16).assignment == color(g, 16).assignment


def test_rewrite_preserves_distributions():
    for seed in range(30):
        m = random_program(seed)
        base = oracle.enumerate_module(m)
        gf = if_convert(m.entry_function)
        ranges = compute_liveness(gf)
        rf = color(build_interference(ranges), 16)
        rgf = rewrite(gf, rf)
        after = oracle.enumerate_guarded(rgf, m.required_qubits, m.required_results)
        assert max_distribution_error(base, after) < 1e-12, seed


def test_rus_recursion_limit3_fits_32_registers():
    from ionflow.experiments import RusConfig, build_rus
    from ionflow.toolchain import compile_module

    res = compile_module(build_rus(RusConfig(limit=3, style="recursion")), registers=32)
    assert res.colors_used <= 32


def test_corpus_colors_equal_max_live_overlap():
    from ionflow import qccd
    from ionflow.experiments import MsdConfig, RusConfig, build_msd, build_rus
    from ionflow.toolchain import compile_module

    corpus = [build_msd(MsdConfig(limit=n)) for n in range(9)]
    corpus += [build_rus(RusConfig(limit=n, style=style)) for style in ("loop", "recursion") for n in range(1, 8)]
    for module in corpus:
        res = compile_module(module)
        gf = if_convert(res.module.entry_function)
        extra = qccd.chain_liveness_uses(gf, qccd.compute_chains(gf), linearize(gf))
        assert res.colors_used == max_overlap(compute_liveness(gf, extra)), module.name
