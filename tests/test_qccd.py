import itertools
import random
import time
from collections import Counter, deque

import pytest

from ionflow import memo, qccd, textir
from ionflow.emulator import _compile_transport
from ionflow.ir import IonflowError, Measure, QGate, Reset
from ionflow.qccd import (
    ALWAYS,
    BFS_EXACT_LIMIT,
    CONDITIONAL,
    MAX_TRAP_SLOTS,
    GateLayer,
    PlacedOp,
    TrapLayout,
    all_steps,
    apply_step,
    interaction_weights,
    place_initial,
    plan_restore,
    plan_transport,
    schedule_layers,
)


def module_with_gates(pairs, n_qubits):
    body = "\n".join(f"  cx q{a}, q{b}" for a, b in pairs)
    src = f"module t\nattrs required_qubits={n_qubits} required_results=1\nfunc @main() {{\nblock e:\n{body}\n  mz q0 -> r0\n  ret\n}}\n"
    return textir.parse(src)


# -- trap layout -----------------------------------------------------------------

def test_default_trap_shape():
    t = TrapLayout.default(5)
    assert t.slots == 5 and t.gate_zones == ((0, 1), (2, 3))
    t2 = TrapLayout.default(2)
    assert t2.slots == 4 and t2.gate_zones == ((0, 1), (2, 3))
    t20 = TrapLayout(20, tuple((4 * i, 4 * i + 1) for i in range(5)))
    assert len(t20.gate_zones) == 5


def test_trap_rejects_bad_zones():
    with pytest.raises(ValueError):
        TrapLayout(4, ((0, 2),))
    with pytest.raises(ValueError):
        TrapLayout(4, ((0, 1), (1, 2)))


def test_trap_width_is_bounded_for_given_and_default_traps():
    assert TrapLayout(MAX_TRAP_SLOTS, ((0, 1),)).slots == TrapLayout.default(MAX_TRAP_SLOTS).slots == MAX_TRAP_SLOTS
    too_wide = f"^trap slots={MAX_TRAP_SLOTS + 1} above the maximum {MAX_TRAP_SLOTS}$"
    with pytest.raises(IonflowError, match=too_wide):
        TrapLayout(MAX_TRAP_SLOTS + 1, ((0, 1),))
    with pytest.raises(IonflowError, match=too_wide):
        TrapLayout.default(MAX_TRAP_SLOTS + 1)  # a module declaring that many qubits


def test_trap_json_roundtrip():
    t = TrapLayout(6, ((0, 1), (4, 5)))
    assert TrapLayout.from_json(t.to_json()) == t


# -- initial placement -------------------------------------------------------------

def arrangement_cost(placement, weights):
    return sum(w * abs(placement[a] - placement[b]) for (a, b), w in weights.items())


def brute_force_best_cost(weights, n):
    best = None
    for perm in itertools.permutations(range(n)):
        cost = sum(w * abs(perm[a] - perm[b]) for (a, b), w in weights.items())
        best = cost if best is None else min(best, cost)
    return best


def test_chain_interaction_puts_middle_qubit_between():
    m = module_with_gates([(0, 1), (1, 2)], 3)
    placement = place_initial(m, TrapLayout.default(3))
    w = interaction_weights(m)
    assert arrangement_cost(placement, w) == brute_force_best_cost(w, 3)
    assert min(placement[0], placement[2]) < placement[1] < max(placement[0], placement[2])


def test_star_center_not_at_either_end():
    m = module_with_gates([(0, 1), (0, 2), (0, 3)], 4)
    placement = place_initial(m, TrapLayout.default(4))
    w = interaction_weights(m)
    assert arrangement_cost(placement, w) == brute_force_best_cost(w, 4)
    assert placement[0] not in (0, 3)


def test_single_gate_identity_tiebreak():
    m = module_with_gates([(0, 1)], 3)
    assert place_initial(m, TrapLayout.default(3)) == (0, 1, 2)


# -- layering ------------------------------------------------------------------------

TRAP2 = TrapLayout(4, ((0, 1), (2, 3)))


def test_independent_gates_share_a_layer():
    layers = schedule_layers([QGate("cx", (0, 1)), QGate("cx", (2, 3))], TRAP2)
    assert len(layers) == 1 and len(layers[0].ops) == 2
    assert {op.zone for op in layers[0].ops} == {(0, 1), (2, 3)}


def test_dependent_gates_stack_layers():
    layers = schedule_layers([QGate("cx", (0, 1)), QGate("cx", (1, 2))], TRAP2)
    assert len(layers) == 2


def test_zone_capacity_limits_parallelism():
    gates = [QGate("cx", (0, 1)), QGate("cx", (2, 3)), QGate("cx", (4, 5))]
    layers = schedule_layers(gates, TrapLayout(6, ((0, 1), (2, 3))))
    assert len(layers) == 2


def test_measure_and_reset_need_zones_too():
    layers = schedule_layers([Measure(0, 0), Reset(1)], TRAP2)
    assert len(layers) == 1
    assert {op.kind for op in layers[0].ops} == {"measure", "reset"}


# -- transport -----------------------------------------------------------------------

def oracle_min_steps(start, goal_fn, slots):
    """Independent breadth-first shortest path over placements."""
    pairs = [(s, s + 1) for s in range(slots - 1)]
    moves = []
    for r in range(1, slots // 2 + 1):
        for combo in itertools.combinations(pairs, r):
            flat = [s for p in combo for s in p]
            if len(set(flat)) == len(flat):
                moves.append(combo)
    seen = {start}
    q = deque([(start, 0)])
    while q:
        pl, d = q.popleft()
        if goal_fn(pl):
            return d
        for mv in moves:
            out = list(pl)
            for a, b in mv:
                for i, s in enumerate(out):
                    if s == a:
                        out[i] = b
                    elif s == b:
                        out[i] = a
            nxt = tuple(out)
            if nxt not in seen:
                seen.add(nxt)
                q.append((nxt, d + 1))
    raise AssertionError("oracle found no path")


def test_already_in_zone_needs_no_steps():
    layer = GateLayer((PlacedOp("gate", "cx", (0, 1), None, None, (0, 1)),))
    steps, placement = plan_transport((0, 1, 2), layer, TrapLayout.default(3))
    assert steps == () and placement == (0, 1, 2)


def test_single_swap_brings_pair_together():
    # ions q0,q1,q2 at slots 0,1,2; gate (q0,q2) in zone (0,1)
    layer = GateLayer((PlacedOp("gate", "cx", (0, 2), None, None, (0, 1)),))
    steps, placement = plan_transport((0, 1, 2), layer, TrapLayout.default(3))
    assert len(steps) == 1
    assert {placement[0], placement[2]} == {0, 1}


def test_full_reversal_of_four_ions_takes_four_steps():
    start = (0, 1, 2, 3)
    goal = (3, 2, 1, 0)
    steps, placement = plan_restore(start, goal, TrapLayout.default(4))
    assert placement == goal
    assert len(steps) == oracle_min_steps(start, lambda p: p == goal, 4) == 4


def test_steps_keep_placement_bijective():
    placement = (0, 1, 2, 3, 4)
    for st in all_steps(5):
        placement = apply_step(placement, st)
        assert sorted(placement) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", range(25))
def test_bfs_plans_are_optimal_vs_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice((3, 4, 5))
    trap = TrapLayout.default(n)
    start = list(range(n))
    rng.shuffle(start)
    start = tuple(start)
    if rng.random() < 0.5:
        a, b = rng.sample(range(n), 2)
        zone = rng.choice(trap.gate_zones)
        layer = GateLayer((PlacedOp("gate", "cx", (a, b), None, None, zone),))
    else:
        (a,) = rng.sample(range(n), 1)
        zone = rng.choice(trap.gate_zones)
        layer = GateLayer((PlacedOp("measure", None, (a,), None, 0, zone),))
    steps, placement = plan_transport(start, layer, trap)

    def goal(pl):
        got = {pl[q] for q in layer.ops[0].qubits}
        zone_set = set(layer.ops[0].zone)
        return got == zone_set if len(layer.ops[0].qubits) == 2 else got <= zone_set

    assert goal(placement)
    assert len(steps) == oracle_min_steps(start, goal, trap.slots)


def test_greedy_routing_used_beyond_bfs_limit():
    n = 9
    trap = TrapLayout(n, ((0, 1), (2, 3), (4, 5), (6, 7)))
    start = tuple(reversed(range(n)))
    goal = tuple(range(n))
    steps, placement = plan_restore(start, goal, trap)
    assert placement == goal
    check = start
    for st in steps:
        check = apply_step(check, st)
    assert check == goal


@pytest.mark.parametrize("seed", range(20))
def test_composed_transport_is_the_fold_of_its_steps(seed):
    """On traps wider than the BFS limit, ``apply_step`` moves each ion as a
    scan over the step's swaps does, and the emulator's composed slot
    permutation of a transport item is ``apply_step`` folded over its steps."""
    rng = random.Random(seed)
    slots = rng.randrange(BFS_EXACT_LIMIT + 1, 300)
    steps = []
    for _ in range(rng.randrange(1, 60)):
        step, a = [], rng.randrange(2)
        while a < slots - 1:
            if rng.random() < 0.4:
                step.append((a, a + 1))
                a += 1
            a += 1
        steps.append(tuple(step))
    placement = tuple(range(slots))
    for st in steps:
        scanned = list(placement)
        for a, b in st:
            scanned = [b if s == a else a if s == b else s for s in scanned]
        placement = apply_step(placement, st)
        assert placement == tuple(scanned)
    perm, inverse, n_steps = _compile_transport(tuple(steps), slots)
    assert perm.tolist() == list(placement) and n_steps == len(steps)
    assert inverse[perm].tolist() == list(range(slots))


def reference_bfs_plan(current, goal, slots):
    """The planner's breadth-first search over ``apply_step``: same step order,
    frontier order and first-hit rule as ``qccd._bfs_plan``."""
    steps = all_steps(slots)
    seen = {current}
    frontier = [(current, ())]
    while frontier:
        nxt = []
        for pl, path in frontier:
            for st in steps:
                p2 = apply_step(pl, st)
                if p2 in seen:
                    continue
                if goal(p2):
                    return path + (st,), p2
                seen.add(p2)
                nxt.append((p2, path + (st,)))
        frontier = nxt
    raise AssertionError("reference search found no path")


def random_layer(rng, n, trap):
    zones = rng.sample(trap.gate_zones, rng.randint(1, len(trap.gate_zones)))
    free = list(range(n))
    rng.shuffle(free)
    ops = []
    for zone in zones:
        k = rng.choice((1, 2)) if len(free) >= 2 else 1
        if len(free) < k:
            break
        qubits = tuple(free.pop() for _ in range(k))
        kind = "gate" if k == 2 else rng.choice(("gate", "measure", "reset"))
        ops.append(PlacedOp(kind, "cx" if k == 2 else "h", qubits, None, None, zone))
    return GateLayer(tuple(ops))


@pytest.mark.parametrize("seed", range(40))
def test_slot_map_bfs_matches_reference_bfs(seed):
    rng = random.Random(seed)
    slots = rng.randint(4, 7)
    n = rng.randint(2, min(slots, BFS_EXACT_LIMIT))
    trap = TrapLayout.default(slots)
    start = tuple(rng.sample(range(slots), n))
    layer = random_layer(rng, n, trap)
    target = tuple(rng.sample(range(slots), n))
    for goal in (lambda p: qccd._layer_goal(p, layer), lambda p: p == target):
        if goal(start):
            continue
        assert qccd._bfs_plan(start, goal, trap) == reference_bfs_plan(start, goal, slots)


def test_lower_plans_each_distinct_query_once(monkeypatch):
    from ionflow.experiments import MsdConfig, RusConfig, build_msd, build_rus
    from ionflow.qccd import LayerItem
    from ionflow.toolchain import compile_module

    transport_keys, restore_keys = [], []
    plan_t, plan_r = qccd.plan_transport, qccd.plan_restore

    def counted_transport(current, layer, trap):
        transport_keys.append((current, tuple((op.qubits, op.zone) for op in layer.ops)))
        return plan_t(current, layer, trap)

    def counted_restore(current, canonical, trap):
        restore_keys.append(current)
        return plan_r(current, canonical, trap)

    monkeypatch.setattr(qccd, "plan_transport", counted_transport)
    monkeypatch.setattr(qccd, "plan_restore", counted_restore)
    memo.clear_all()  # an earlier compile in this process may have planned these queries already
    for module in (build_msd(MsdConfig(limit=8)), build_rus(RusConfig(limit=5, style="recursion"))):
        transport_keys.clear()
        restore_keys.clear()
        res = compile_module(module)
        layers = sum(isinstance(it, LayerItem) for it in res.program.items)
        assert max(Counter(transport_keys).values()) == 1, module.name
        assert max(Counter(restore_keys).values()) == 1, module.name
        assert len(transport_keys) < layers, module.name  # unrolled rounds repeat their queries
        transport_keys.clear()
        restore_keys.clear()
        assert compile_module(module).program == res.program
        assert transport_keys == [] and restore_keys == [], module.name  # a later compile plans nothing


def _plan_cache_programs():
    """MSD 0-3 and RUS loop and recursion 1-3, in both modes, on the default
    trap, a 12-slot trap planned by routing, a 6-slot trap whose zones match
    the default trap's in count only, and an 8-slot trap with the default
    trap's zones, which meets the default trap's queries but plans them by
    routing."""
    from ionflow.experiments import MsdConfig, RusConfig, build_msd, build_rus

    modules = [build_msd(MsdConfig(limit=n, basis="X")) for n in range(4)]
    modules += [build_rus(RusConfig(limit=n, basis="Z", style=s)) for s in ("loop", "recursion") for n in (1, 2, 3)]
    traps = (None, TrapLayout(12, ((0, 1), (6, 7))), TrapLayout(6, ((0, 1), (4, 5))), TrapLayout(8, ((0, 1), (2, 3))))
    return [(m, trap, mode) for trap in traps for m in modules for mode in (CONDITIONAL, ALWAYS)]


def _cold_json(module, trap, mode):
    from ionflow.toolchain import compile_module

    memo.clear_all()
    return compile_module(module, trap=trap, mode=mode).program.to_json()


def _plan_cache_size():
    """The size the plan memo holds, counted from its entries: one per entry, plus a schedule's ops or a plan's swaps."""
    return sum(
        1 + (len(key[2]) if key[0] == "schedule" else sum(map(len, plan[0])))
        for key, plan in qccd.PLANS.entries.items()
    )


def _transports():
    """The memoized transport queries, as (trap, placement, layer's (qubits, zone) per op)."""
    return {key[1:] for key in qccd.PLANS.entries if key[0] == "transport"}


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_warm_plan_caches_give_the_outputs_of_cold_ones(order):
    from ionflow.toolchain import compile_module

    programs = _plan_cache_programs()
    cold = [_cold_json(*p) for p in programs]
    if order == "reverse":
        programs, cold = programs[::-1], cold[::-1]
    memo.clear_all()
    for (module, trap, mode), want in zip(programs, cold):
        assert compile_module(module, trap=trap, mode=mode).program.to_json() == want, (module.name, trap, mode)
    assert _transports() and qccd.PLANS.held == _plan_cache_size()


def test_plan_keys_keep_apart_ops_that_print_apart():
    # 1 and 1.0 compare equal, as do -0.0 and 0.0, but a layer prints its
    # angle as given: a warm schedule must not swap them
    from ionflow.toolchain import CompileError, compile_text

    def source(angle, qubit="q1"):
        return (
            "module t\nattrs required_qubits=2 required_results=1\n"
            "func @f(%q: qubit) {\nblock entry:\n  h %q\n  ret\n}\n"
            f"func @main() {{\nblock entry:\n  rz({angle}) q0\n  call @f({qubit})\n  cx q0, q1\n"
            "  mz q0 -> r0\n  output result r0\n  ret\n}\n"
        )

    for refused in (source("true"), source("1", qubit="true")):  # a bool is no angle and no qubit
        with pytest.raises(CompileError):
            compile_text(refused)
    texts = [source(a) for a in ("1", "1.0", "0", "0.0", "-0.0")]
    cold = []
    for text in texts:
        memo.clear_all()
        cold.append(compile_text(text).program.to_json())
    assert len(set(cold)) == len(texts)
    for order in (texts, texts[::-1]):
        for text in order:
            assert compile_text(text).program.to_json() == cold[texts.index(text)], text


def test_restores_from_one_placement_to_two_canonical_ones_are_kept_apart():
    # both programs end their chain on the same placement of the same trap,
    # but their canonical placements differ, and so do their restores
    from ionflow.toolchain import compile_module

    modules = [module_with_gates(pairs, 4) for pairs in ([(3, 2), (3, 1), (3, 0)], [(0, 3), (3, 1), (2, 0)])]
    cold = [_cold_json(m, None, CONDITIONAL) for m in modules]
    canonical = [compile_module(m).program.canonical for m in modules]
    assert canonical[0] != canonical[1]
    for k in (0, 1, 0):
        assert compile_module(modules[k]).program.to_json() == cold[k]


def test_the_plan_caches_stay_within_their_bound(monkeypatch):
    from ionflow.toolchain import compile_module

    programs = _plan_cache_programs()
    cold = [_cold_json(*p) for p in programs]
    monkeypatch.setattr(qccd.PLANS, "bound", 40)  # RUS plans fit it; some routed MSD plans are larger
    memo.clear_all()
    sizes = []
    for (module, trap, mode), want in zip(programs, cold):
        assert compile_module(module, trap=trap, mode=mode).program.to_json() == want, (module.name, trap, mode)
        sizes.append(qccd.PLANS.held)
        assert qccd.PLANS.held == _plan_cache_size() <= 40
    assert max(sizes) > 30  # the bound was reached, so the memo was cleared along the way


def test_a_search_that_raises_caches_nothing(monkeypatch):
    from ionflow.experiments import MsdConfig, build_msd
    from ionflow.toolchain import compile_module

    module = build_msd(MsdConfig(limit=2, basis="X"))
    want = _cold_json(module, None, CONDITIONAL)
    queries, searched = [], []
    plan, bfs = qccd.plan_transport, qccd._bfs_plan

    def recorded(current, layer, trap):
        queries.append((trap, current, tuple((op.qubits, op.zone) for op in layer.ops)))
        return plan(current, layer, trap)

    def failing_once(current, goal, trap):
        searched.append(current)
        if len(searched) == 1:
            raise qccd.Unreachable("injected")
        return bfs(current, goal, trap)

    monkeypatch.setattr(qccd, "plan_transport", recorded)
    monkeypatch.setattr(qccd, "_bfs_plan", failing_once)
    memo.clear_all()
    with pytest.raises(qccd.Unreachable, match="injected"):
        compile_module(module)
    failed = queries[-1]
    assert failed not in _transports() and qccd.PLANS.held == _plan_cache_size()
    assert compile_module(module).program.to_json() == want
    assert searched[1] == searched[0] and failed in _transports()  # searched again, and cached once it returns


def test_routing_fallback_lowers_to_the_same_program_twice():
    from ionflow.qccd import lower
    from ionflow.toolchain import compile_module

    rounds = "\n".join(
        f"block r{i}:\n  cx q0, q8\n  cx q1, q7\n  cx q2, q6\n  mz q{i} -> r{i}\n  %m{i} = read_result r{i}\n"
        f"  br %m{i}, x{i}, r{i + 1}\nblock x{i}:\n  x q{i}\n  jmp r{i + 1}"
        for i in range(3)
    )
    src = (
        "module t\nattrs required_qubits=9 required_results=3\nfunc @main() {\n"
        f"{rounds}\nblock r3:\n  output result r0\n  ret\n}}\n"
    )
    trap = TrapLayout(9, ((0, 1), (2, 3), (4, 5), (6, 7)))
    res = compile_module(textir.parse(src), trap=trap)
    assert len(res.program.canonical) > BFS_EXACT_LIMIT and res.program.planned_transport_steps > 0
    again = lower(res.guarded, res.module, trap, n_regs=res.program.n_regs)
    assert again.to_json() == res.program.to_json()
    assert_transport_replays(res.program)


def assert_transport_replays(program):
    """Replaying every transport step puts each layer's ions on its expected
    slots and ends at the canonical placement."""
    from ionflow.qccd import LayerItem, TransportItem

    placement = program.canonical
    for item in program.items:
        if isinstance(item, TransportItem):
            for st in item.steps:
                placement = apply_step(placement, st)
        elif isinstance(item, LayerItem):
            assert all(placement[q] == s for q, s in item.expected_slots)
    assert placement == program.canonical


def test_wide_trap_with_few_ions_takes_the_routing_fallback():
    # the BFS step table grows as Fibonacci(slots + 1), so traps wider than
    # BFS_EXACT_LIMIT slots route however few ions they hold
    from ionflow.experiments import RusConfig, build_rus
    from ionflow.toolchain import compile_module

    trap = TrapLayout(40, ((0, 1),))
    t0 = time.perf_counter()
    res = compile_module(build_rus(RusConfig(limit=2, style="loop")), trap=trap)
    assert time.perf_counter() - t0 < 1.0
    assert len(res.program.canonical) == 3 and res.program.planned_transport_steps > 0
    assert_transport_replays(res.program)


def reference_route(current, target, slots):
    """Odd-even transposition routing that scans every slot in every phase, as the router's plan must read."""
    occupant = {s: q for q, s in enumerate(current)}
    free = iter(sorted(set(range(slots)) - set(target)))
    keys = [next(free) if s not in occupant else target[occupant[s]] for s in range(slots)]
    plan, moved = [], True
    while moved:
        moved = False
        for parity in (0, 1):
            swaps = tuple((s, s + 1) for s in range(parity, slots - 1, 2) if keys[s] > keys[s + 1])
            for a, b in swaps:
                keys[a], keys[b] = keys[b], keys[a]
            if swaps:
                plan.append(swaps)
                moved = True
    return tuple(plan)


@pytest.mark.parametrize("seed", range(30))
def test_routing_emits_the_full_scan_plan(seed):
    # the router keeps its live inversions instead of rescanning every slot;
    # its plan must be the scan's, step for step
    rng = random.Random(seed)
    slots = rng.randrange(BFS_EXACT_LIMIT + 1, 200)
    n = rng.randint(1, min(slots, 12))
    current, target = (tuple(rng.sample(range(slots), n)) for _ in range(2))
    plan, reached = qccd._route_to_targets(current, target, TrapLayout(slots, ((0, 1),)))
    assert reached == target
    assert plan == reference_route(current, target, slots)


def test_the_widest_trap_compiles_in_bounded_time():
    # MSD limit 2 on MAX_TRAP_SLOTS slots with its two zones half a trap
    # apart: 83,940 planned steps. On a 2-core machine this took about 4.5 s
    # while every routing phase rescanned every slot, and takes about 0.25 s
    # without that rescan; the bound leaves eight times that
    from ionflow.experiments import MsdConfig, build_msd
    from ionflow.toolchain import compile_module

    slots = MAX_TRAP_SLOTS
    trap = TrapLayout(slots, ((0, 1), (slots // 2, slots // 2 + 1)))
    t0 = time.perf_counter()
    res = compile_module(build_msd(MsdConfig(limit=2, basis="X")), trap=trap)
    assert time.perf_counter() - t0 < 2.0
    assert res.program.planned_transport_steps == 83940
    assert_transport_replays(res.program)


# -- lowering ---------------------------------------------------------------------

def compile_src(body, qubits=3, results=3, mode=CONDITIONAL):
    from ionflow.toolchain import compile_module

    src = f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\n{body}\n}}\n"
    return compile_module(textir.parse(src), mode=mode)


def test_straight_line_single_guarded_block():
    res = compile_src("block e:\n  h q0\n  mz q0 -> r0\n  output result r0\n  ret", qubits=1, results=1)
    from ionflow.qccd import LayerItem, MarkItem

    marks = [i for i in res.program.items if isinstance(i, MarkItem)]
    assert len(marks) == 1 and marks[0].guard is True
    layers = [i for i in res.program.items if isinstance(i, LayerItem)]
    assert all(l.guard is True for l in layers)


def test_modes_share_plans_and_differ_only_in_flag():
    body = "block e:\n  h q0\n  mz q0 -> r0\n  output result r0\n  ret"
    a = compile_src(body, qubits=1, results=1, mode=CONDITIONAL)
    b = compile_src(body, qubits=1, results=1, mode=ALWAYS)
    assert a.program.items == b.program.items
    assert a.program.conditional_transport and not b.program.conditional_transport


def test_chain_restores_canonical_placement():
    from ionflow.qccd import TransportItem

    res = compile_src(
        "block e:\n  cx q0, q2\n  cx q1, q2\n  mz q2 -> r0\n  output result r0\n  ret",
        qubits=3,
    )
    placement = res.program.canonical
    for item in res.program.items:
        if isinstance(item, TransportItem):
            for st in item.steps:
                placement = apply_step(placement, st)
    assert placement == res.program.canonical


def test_loop_form_planned_transport_linear_in_limit():
    from ionflow.experiments import RusConfig, build_rus
    from ionflow.toolchain import compile_module

    planned = []
    for limit in range(1, 9):
        res = compile_module(build_rus(RusConfig(limit=limit, style="loop")))
        planned.append(res.planned_transport_steps)
    d1 = [b - a for a, b in zip(planned, planned[1:])]
    assert len(set(d1)) == 1, planned  # constant first difference


@pytest.mark.parametrize("mode", [CONDITIONAL, ALWAYS])
def test_shots_do_not_depend_on_register_assignment(mode):
    """Shared registers give the same shots as one register per vreg: a
    block's mark reads its guard only after the prelude has written it."""
    from ionflow import predication, qccd, regalloc
    from ionflow.emulator import NOISELESS, run_shots
    from ionflow.experiments import MsdConfig, RusConfig, build_msd, build_rus
    from ionflow.toolchain import compile_module

    corpus = (
        build_rus(RusConfig(limit=2, basis="X", style="loop")),
        build_rus(RusConfig(limit=3, basis="Z", style="recursion")),
        build_msd(MsdConfig(limit=2, basis="X")),
    )
    for module in corpus:
        shared = compile_module(module, mode=mode)
        gf = predication.if_convert(shared.module.entry_function)
        extra = qccd.chain_liveness_uses(gf, qccd.compute_chains(gf), regalloc.linearize(gf))
        live = regalloc.build_interference(regalloc.compute_liveness(gf, extra)).nodes
        own = regalloc.RegFile(len(live), {v: i for i, v in enumerate(live)})
        prog = qccd.lower(regalloc.rewrite(gf, own), shared.module, shared.program.trap, mode, n_regs=len(live))
        assert run_shots(prog, NOISELESS, 200, 5) == run_shots(shared.program, NOISELESS, 200, 5), module.name
