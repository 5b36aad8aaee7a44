import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from spiking_reference import reference_plasticity, reference_stdp_update, reference_trial

from spikezero.core import RngStream
from spikezero.spiking import (
    KernelParams,
    Topology,
    interarrival_time,
    next_spike_time,
    plasticity_update,
    potential,
    run_trial,
    stdp_update,
)

PARAMS = KernelParams(decay=1.0, amplitude=0.5, threshold=1.0, half_interval=0.25)

CHAIN = Topology(n_neurons=3, edges=((0, 1), (1, 2)), inputs=(0,), outputs=(2,))
FAN = Topology(n_neurons=4, edges=((0, 3), (1, 3), (2, 3)), inputs=(0, 1, 2), outputs=(3,))


# ---------------------------------------------------------------------------
# topology


def test_topology_rejects_cycle():
    with pytest.raises(ValueError, match="cycle"):
        Topology(n_neurons=3, edges=((0, 1), (1, 2), (2, 0)), inputs=(0,), outputs=(2,))


def test_topology_rejects_self_loop_and_bad_ids():
    with pytest.raises(ValueError, match="self-loop"):
        Topology(n_neurons=2, edges=((0, 0),), inputs=(0,), outputs=(1,))
    with pytest.raises(ValueError, match="unknown neuron"):
        Topology(n_neurons=2, edges=((0, 5),), inputs=(0,), outputs=(1,))
    with pytest.raises(ValueError, match="duplicate"):
        Topology(n_neurons=2, edges=((0, 1), (0, 1)), inputs=(0,), outputs=(1,))
    with pytest.raises(ValueError, match="pair"):
        Topology(n_neurons=2, edges=((0, 1, 1),), inputs=(0,), outputs=(1,))


def test_topology_order_respects_edges():
    order = CHAIN.order
    assert order.index(0) < order.index(1) < order.index(2)


def test_topology_parents_in_edge_order():
    topo = Topology(n_neurons=4, edges=((2, 3), (0, 1), (0, 3), (1, 3)), inputs=(0, 2),
                    outputs=(3,))
    assert [topo.parents(j) for j in range(4)] == [[], [0], [], [2, 0, 1]]
    assert topo.parents(7) == []


# ---------------------------------------------------------------------------
# potential and firing


def test_potential_single_kernel():
    assert potential([(1.0, 0.0)], 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_potential_before_any_arrival():
    assert potential([(1.0, 0.5), (2.0, 1.0)], 0.2) == 0.0


def test_potential_two_spikes_hand_value():
    got = potential([(0.6, 0.0), (0.6, 0.1)], 0.1)
    assert got == pytest.approx(1.1429024508215757, rel=1e-12)


def test_potential_decays_between_arrivals():
    rng = np.random.default_rng(0)
    for _ in range(50):
        arrivals = [(float(w), float(t)) for w, t in
                    zip(rng.uniform(0.1, 2.0, 4), rng.uniform(0.0, 1.0, 4))]
        decay = float(rng.uniform(0.5, 3.0))
        t0 = max(t for _, t in arrivals)
        ts = np.linspace(t0 + 0.01, t0 + 1.0, 20)
        values = [potential(arrivals, t, decay) for t in ts]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_next_spike_time_immediate():
    assert next_spike_time([(2.0, 0.0)], threshold=1.0) == 0.0


def test_next_spike_time_unreachable():
    assert next_spike_time([(0.3, 0.0), (0.3, 0.5)], threshold=1.0) is None


def test_next_spike_time_hand_value():
    # 0.6 at t=0 decays to 0.6 e^-0.1, the second 0.6 lifts it over 1.0
    got = next_spike_time([(0.6, 0.0), (0.6, 0.1)], threshold=1.0)
    assert got == 0.1


def test_next_spike_time_unsorted_input():
    got = next_spike_time([(0.6, 0.1), (0.6, 0.0)], threshold=1.0)
    assert got == 0.1


# ---------------------------------------------------------------------------
# interarrival relation


def test_interarrival_at_threshold_is_zero():
    assert interarrival_time([1.0], [0.0], threshold=1.0) == 0.0


def test_interarrival_hand_value():
    assert interarrival_time([1.0, 1.0], [0.0, 0.0], 1.0) == pytest.approx(
        1.3862943611198906, rel=1e-14)


def test_interarrival_below_threshold_errors():
    with pytest.raises(ValueError, match="does not fire"):
        interarrival_time([0.4], [0.0], threshold=1.0)


def test_interarrival_depends_only_on_products():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        m = int(rng.integers(1, 8))
        w = np.exp(rng.standard_normal(m))
        u = rng.uniform(-2.0, 2.0, m)
        drive = float(np.sum(w * np.exp(u)))
        threshold = drive * float(rng.uniform(0.05, 1.0))
        lam = np.exp(rng.uniform(-1.5, 1.5, m))
        base = interarrival_time(w, u, threshold)
        moved = interarrival_time(lam * w, u - np.log(lam), threshold)
        assert abs(base - moved) <= 1e-12


# ---------------------------------------------------------------------------
# plasticity


def test_stdp_midpoint_is_exact_noop():
    w = stdp_update(1.3, arrival=0.5, t_minus=0.0, t_plus=1.0, params=PARAMS)
    assert w == 1.3


def test_stdp_hand_value():
    params = KernelParams(decay=1.0, amplitude=0.5, threshold=1.0, half_interval=1.0)
    w = stdp_update(1.0, arrival=0.0, t_minus=0.0, t_plus=math.log(2.0), params=params)
    assert w == pytest.approx(0.75, rel=1e-12)


def test_stdp_reward_sign_flip():
    params = KernelParams(decay=1.0, amplitude=0.5, threshold=1.0, half_interval=1.0)
    unsup = stdp_update(1.0, 0.1, 0.0, 1.0, params)
    modulated = stdp_update(1.0, 0.1, 0.0, 1.0, params, reward_delta=1.0, alpha=1.0)
    assert (unsup - 1.0) == pytest.approx(-(modulated - 1.0), rel=1e-12)


def test_stdp_zero_reward_is_noop():
    params = KernelParams(decay=1.0, amplitude=0.5, threshold=1.0, half_interval=1.0)
    assert stdp_update(2.0, 0.3, 0.0, 1.0, params, reward_delta=0.0) == 2.0


def test_stdp_timing_window_enforced():
    with pytest.raises(ValueError, match="outside"):
        stdp_update(1.0, arrival=2.0, t_minus=0.0, t_plus=1.0, params=PARAMS)


def test_stdp_unsupervised_keeps_weights_positive():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        w = float(np.exp(rng.standard_normal() * 2))
        c = float(rng.uniform(0.1, 3.0))
        amplitude = float(rng.uniform(0.01, 1.0))
        t_minus = float(rng.normal())
        width = float(rng.uniform(0.05, 5.0))
        tau = t_minus + width * float(rng.uniform(0, 1))
        params = KernelParams(decay=c, amplitude=amplitude, threshold=1.0,
                              half_interval=1.0)
        updated = stdp_update(w, tau, t_minus, t_minus + width, params)
        assert updated > 0
        assert abs(updated - w) < w


# ---------------------------------------------------------------------------
# trials


def test_run_trial_chain_forced_zero_offsets():
    weights = {(0, 1): 2.0, (1, 2): 1.5}
    offsets = {(0, 1): 0.0, (1, 2): 0.0}
    record = run_trial(CHAIN, weights, {0: 0.0}, PARAMS, offsets=offsets)
    # with zero offsets every arrival is instantaneous and each single-edge
    # drive already exceeds the threshold
    assert record.firing == {0: 0.0, 1: 0.0, 2: 0.0}
    assert record.readout == pytest.approx(2.0 * math.log(1.5), rel=1e-12)


def test_run_trial_fan_staggered_inputs():
    weights = {e: 0.6 for e in FAN.edges}
    offsets = {e: 0.0 for e in FAN.edges}
    record = run_trial(FAN, weights, {0: 0.0, 1: 0.1, 2: 0.2}, PARAMS, offsets=offsets)
    # potential 0.6 at t=0, 0.6 e^-0.1 + 0.6 = 1.1429 at t=0.1 crosses S=1
    assert record.firing[3] == 0.1
    assert record.readout == pytest.approx(2.0 * math.log(1.8), rel=1e-12)


def test_run_trial_no_input_spikes_means_no_firing():
    weights = {(0, 1): 0.5, (1, 2): 1.5}
    record = run_trial(CHAIN, weights, {0: 0.0}, PARAMS,
                       offsets={(0, 1): 0.0, (1, 2): 0.0})
    # 0.5 < threshold: neuron 1 never fires and nothing propagates
    assert record.firing[1] is None
    assert record.firing[2] is None
    assert record.readout == 1e6
    assert not record.output_fired


def test_run_trial_silent_inputs_leave_network_quiet():
    weights = {e: 0.6 for e in FAN.edges}
    record = run_trial(FAN, weights, {0: None, 1: None, 2: None}, PARAMS,
                       gen=RngStream(8).generator())
    assert all(t is None for t in record.firing.values())
    assert record.arrivals == {}
    assert record.readout == 1e6


def test_run_trial_same_seed_identical():
    weights = {e: 0.6 for e in FAN.edges}
    inputs = {0: 0.0, 1: 0.0, 2: 0.0}
    a = run_trial(FAN, weights, inputs, PARAMS, gen=RngStream(5).generator())
    b = run_trial(FAN, weights, inputs, PARAMS, gen=RngStream(5).generator())
    assert a.offsets == b.offsets
    assert a.firing == b.firing
    assert a.readout == b.readout


def test_run_trial_readout_invariant_under_weight_offset_transform():
    weights = {e: 0.6 for e in FAN.edges}
    inputs = {0: 0.0, 1: 0.0, 2: 0.0}
    gen = RngStream(6).generator()
    rng = np.random.default_rng(7)
    for _ in range(200):
        drawn = gen.uniform(-PARAMS.half_interval, PARAMS.half_interval, len(FAN.edges))
        offsets = {e: float(drawn[i]) for i, e in enumerate(FAN.edges)}
        lam = {e: float(v) for e, v in zip(FAN.edges, np.exp(rng.uniform(-1, 1, 3)))}
        base = run_trial(FAN, weights, inputs, PARAMS, offsets=offsets)
        moved = run_trial(FAN, {e: lam[e] * weights[e] for e in FAN.edges}, inputs,
                          PARAMS, offsets={e: offsets[e] - math.log(lam[e])
                                           for e in FAN.edges})
        assert abs(base.readout - moved.readout) <= 1e-12


def test_run_trial_readout_affine():
    weights = {e: 0.6 for e in FAN.edges}
    offsets = {e: 0.0 for e in FAN.edges}
    inputs = {0: 0.0, 1: 0.0, 2: 0.0}
    plain = run_trial(FAN, weights, inputs, PARAMS, offsets=offsets)
    scaled = run_trial(FAN, weights, inputs, PARAMS, offsets=offsets,
                       readout_scale=2.0, readout_offset=-1.0)
    assert scaled.readout == pytest.approx(2.0 * plain.readout - 1.0, rel=1e-12)


def test_run_trial_validates_inputs():
    with pytest.raises(ValueError, match="missing weight"):
        run_trial(CHAIN, {(0, 1): 1.0}, {0: 0.0}, PARAMS,
                  offsets={(0, 1): 0.0, (1, 2): 0.0})
    with pytest.raises(ValueError, match="missing input"):
        run_trial(CHAIN, {(0, 1): 1.0, (1, 2): 1.0}, {}, PARAMS,
                  offsets={(0, 1): 0.0, (1, 2): 0.0})
    with pytest.raises(ValueError, match="positive"):
        run_trial(CHAIN, {(0, 1): -1.0, (1, 2): 1.0}, {0: 0.0}, PARAMS,
                  offsets={(0, 1): 0.0, (1, 2): 0.0})
    with pytest.raises(ValueError, match="generator"):
        run_trial(CHAIN, {(0, 1): 1.0, (1, 2): 1.0}, {0: 0.0}, PARAMS)
    with pytest.raises(ValueError, match=r"one weight per edge \(2\), not 1"):
        run_trial(CHAIN, [1.0], {0: 0.0}, PARAMS, offsets=[0.0, 0.0])
    with pytest.raises(ValueError, match=r"one offset per edge \(2\), not 3"):
        run_trial(CHAIN, [1.0, 1.0], {0: 0.0}, PARAMS, offsets=[0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# the index-array engine against the scalar reference


finite = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def networks(draw):
    """A random DAG over neurons numbered in a shuffled topological order."""
    n = draw(st.integers(2, 9))
    rank = draw(st.permutations(range(n)))
    pairs = [(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    inputs = draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True))
    output = draw(st.sampled_from(range(n)))
    return Topology(n_neurons=n, edges=tuple(edges), inputs=tuple(inputs), outputs=(output,))


def bit_pattern(value):
    return None if value is None else float(value).hex()


def bit_patterns(mapping: dict) -> dict:
    return {key: bit_pattern(value) for key, value in mapping.items()}


@settings(max_examples=300, deadline=None)
@given(topo=networks(), data=st.data())
def test_engine_equals_scalar_reference(topo, data):
    params = KernelParams(decay=data.draw(st.floats(0.1, 3.0)),
                          amplitude=data.draw(st.floats(0.01, 1.0)),
                          threshold=data.draw(st.floats(0.2, 3.0)),
                          half_interval=data.draw(st.floats(0.05, 1.0)))
    weights = {e: data.draw(st.floats(0.05, 3.0)) for e in topo.edges}
    # offsets on [-A, A] as spike-demo draws them; the transform moves them out
    offsets = {e: params.half_interval * data.draw(finite) for e in topo.edges}
    input_times = {i: data.draw(st.none() | finite) for i in topo.inputs}
    if data.draw(st.booleans(), label="transform"):
        # the spike-demo transform path: (w, U) -> (lam w, U - ln lam)
        lam = {e: data.draw(st.floats(0.1, 10.0)) for e in topo.edges}
        weights = {e: lam[e] * weights[e] for e in topo.edges}
        offsets = {e: offsets[e] - math.log(lam[e]) for e in topo.edges}
    scale, shift = data.draw(finite), data.draw(finite)

    record = run_trial(topo, weights, input_times, params, offsets=offsets,
                       readout_scale=scale, readout_offset=shift)
    arrivals, firing, readout, fired, fired_edges = reference_trial(
        topo, weights, input_times, params, offsets, readout_scale=scale, readout_offset=shift)
    assert list(record.arrivals) == list(arrivals)
    assert bit_patterns(record.arrivals) == bit_patterns(arrivals)
    assert list(record.firing) == list(firing)
    assert bit_patterns(record.firing) == bit_patterns(firing)
    assert bit_pattern(record.readout) == bit_pattern(readout)
    assert record.output_fired == fired
    assert record.fired_edges == fired_edges
    assert record.offsets == offsets
    # the same trial from lists in edge order
    listed = run_trial(topo, [weights[e] for e in topo.edges], input_times, params,
                       offsets=[offsets[e] for e in topo.edges], readout_scale=scale,
                       readout_offset=shift)
    assert listed == record

    reward_delta = data.draw(st.none() | st.floats(-5.0, 5.0), label="reward_delta")
    alpha = data.draw(st.floats(0.01, 2.0), label="alpha")
    try:
        expected = reference_plasticity(topo, weights, arrivals, firing, offsets, params,
                                        reward_delta=reward_delta, alpha=alpha)
    except ValueError:
        # an offset beyond the half interval puts a spike outside its window
        with pytest.raises(ValueError, match="outside postsynaptic window"):
            plasticity_update(topo, weights, record, params, reward_delta=reward_delta,
                              alpha=alpha)
        return
    updated = plasticity_update(topo, weights, record, params, reward_delta=reward_delta,
                                alpha=alpha)
    assert list(updated) == list(expected)
    assert bit_patterns(updated) == bit_patterns(expected)
    listed = plasticity_update(topo, [weights[e] for e in topo.edges], record, params,
                               reward_delta=reward_delta, alpha=alpha)
    assert [bit_pattern(x) for x in listed] == [bit_patterns(expected)[e] for e in topo.edges]


@settings(max_examples=300, deadline=None)
@given(weight=st.floats(1e-3, 1e3), t_minus=finite, place=st.floats(0.0, 1.0),
       width=st.floats(1e-3, 5.0), decay=st.floats(0.1, 3.0), amplitude=st.floats(0.01, 1.0),
       reward_delta=st.none() | st.floats(-5.0, 5.0), alpha=st.floats(0.01, 2.0))
def test_stdp_update_equals_scalar_reference(weight, t_minus, place, width, decay, amplitude,
                                             reward_delta, alpha):
    params = KernelParams(decay=decay, amplitude=amplitude, threshold=1.0, half_interval=1.0)
    tau, t_plus = t_minus + place * width, t_minus + width
    got = stdp_update(weight, tau, t_minus, t_plus, params, reward_delta=reward_delta,
                      alpha=alpha)
    expected = reference_stdp_update(weight, tau, t_minus, t_plus, params,
                                     reward_delta=reward_delta, alpha=alpha)
    assert got.hex() == expected.hex()


# ---------------------------------------------------------------------------
# the (w, U) -> (lam w, U - ln lam) reduction on random topologies


@st.composite
def fan_in_networks(draw):
    """Inputs, an optional fully connected hidden layer, and one output fed
    by every hidden neuron and by some inputs directly."""
    n_in = draw(st.integers(1, 6))
    n_hidden = draw(st.integers(0, 4))
    inputs = range(n_in)
    hidden = range(n_in, n_in + n_hidden)
    out = n_in + n_hidden
    direct = draw(st.lists(st.sampled_from(inputs), unique=True, min_size=0 if n_hidden else 1))
    edges = [(i, h) for i in inputs for h in hidden] + [(i, out) for i in [*hidden, *direct]]
    return Topology(n_neurons=out + 1, edges=tuple(edges), inputs=tuple(inputs), outputs=(out,))


@settings(max_examples=300, deadline=None)
@given(topo=fan_in_networks(), data=st.data())
def test_readout_invariant_under_reduction_of_output_edges(topo, data):
    a = data.draw(st.floats(0.05, 2.0), label="half_interval")
    params = KernelParams(decay=data.draw(st.floats(0.1, 3.0)), amplitude=1.0,
                          threshold=data.draw(st.floats(0.05, 2.0)), half_interval=a)
    weights = {e: data.draw(st.floats(0.05, 3.0)) for e in topo.edges}
    offsets = {e: a * data.draw(finite) for e in topo.edges}
    input_times = {i: data.draw(finite) for i in topo.inputs}
    base = run_trial(topo, weights, input_times, params, offsets=offsets)
    # a drive within rounding of the threshold may fire on one side only
    assume(base.output_fired and base.readout > 1e-9)

    out = topo.outputs[0]
    lam = {e: math.exp(data.draw(st.floats(-3.0, 3.0))) for e in topo.edges if e[1] == out}
    moved = run_trial(topo, {e: lam[e] * w if e in lam else w for e, w in weights.items()},
                      input_times, params,
                      offsets={e: u - math.log(lam[e]) if e in lam else u
                               for e, u in offsets.items()})
    assert moved.output_fired
    assert abs(moved.readout - base.readout) <= 1e-12
