"""Desk-scale feedforward spiking-network simulator.

A spike emitted at time tau contributes the decaying kernel
w * e^{c(tau - t)} for t >= tau to the receiving neuron's potential; the
neuron fires once the superposed potential reaches the threshold S. Each
edge carries exactly one spike per trial. Two threshold semantics coexist
deliberately:

* :func:`next_spike_time` walks the jump-decay potential and fires at the
  first arrival instant where it reaches S;
* :func:`interarrival_time` is the idealized algebraic relation
  T = 2 ln(sum_i w_i e^{U_i} / S), which depends on weights and timing
  offsets only through the products w_i e^{U_i}.

The second form is what makes the learning rule a zero-order method: the
whole downstream readout is a function of w * e^U, so weight information
travels only through spike times.

A :class:`Topology` precomputes each neuron's incoming edges once, so a
trial costs O(E) rather than a scan of the edge list per neuron.
:func:`plasticity_update` applies one trial's plasticity to every edge with
one kernel evaluation per edge, from which both the unsupervised and the
reward-modulated change follow; :func:`stdp_update` is the same rule for a
single edge.
"""

from __future__ import annotations

import graphlib
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

__all__ = [
    "Topology",
    "load_topology",
    "KernelParams",
    "potential",
    "next_spike_time",
    "interarrival_time",
    "stdp_update",
    "TrialRecord",
    "run_trial",
    "plasticity_update",
]

NO_FIRE_READOUT = 1e6


@dataclass(frozen=True)
class Topology:
    """Static feedforward wiring: a DAG over neurons 0..n_neurons-1."""

    n_neurons: int
    edges: tuple
    inputs: tuple
    outputs: tuple

    def __post_init__(self):
        if self.n_neurons < 1:
            raise ValueError("topology needs at least one neuron")
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        inputs = tuple(int(i) for i in self.inputs)
        outputs = tuple(int(i) for i in self.outputs)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        ids = range(self.n_neurons)
        for i, j in edges:
            if i not in ids or j not in ids:
                raise ValueError(f"edge ({i}, {j}) references an unknown neuron")
            if i == j:
                raise ValueError(f"self-loop at neuron {i}")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        for name, nodes in (("inputs", inputs), ("outputs", outputs)):
            if not nodes:
                raise ValueError(f"{name} must be nonempty")
            for i in nodes:
                if i not in ids:
                    raise ValueError(f"{name} references unknown neuron {i}")
        # raises CycleError for anything that is not a DAG
        sorter = graphlib.TopologicalSorter({j: set() for j in ids})
        for i, j in edges:
            sorter.add(j, i)
        try:
            order = tuple(sorter.static_order())
        except graphlib.CycleError as exc:
            raise ValueError(f"topology contains a directed cycle: {exc.args[1]}") from exc
        object.__setattr__(self, "_order", order)
        # per neuron, its incoming edges as (edge index, parent) in edge order
        fan_in = [[] for _ in ids]
        for k, (i, j) in enumerate(edges):
            fan_in[j].append((k, i))
        object.__setattr__(self, "_fan_in", tuple(map(tuple, fan_in)))
        object.__setattr__(self, "_input_set", frozenset(inputs))

    @property
    def order(self) -> tuple:
        """Neurons in a topological order (parents before children)."""
        return self._order

    def parents(self, j: int) -> list:
        if not 0 <= j < self.n_neurons:
            return []
        return [i for _, i in self._fan_in[j]]


def load_topology(path) -> Topology:
    """Read a topology from JSON: {neurons, edges, inputs, outputs}."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    expected = {"neurons", "edges", "inputs", "outputs"}
    unknown = set(doc) - expected
    if unknown:
        raise ValueError(f"unknown topology field {sorted(unknown)[0]!r}")
    missing = expected - set(doc)
    if missing:
        raise ValueError(f"topology file missing field {sorted(missing)[0]!r}")
    return Topology(n_neurons=doc["neurons"], edges=tuple(map(tuple, doc["edges"])),
                    inputs=tuple(doc["inputs"]), outputs=tuple(doc["outputs"]))


@dataclass(frozen=True)
class KernelParams:
    """Kernel and plasticity constants.

    decay         -- exponential decay rate c of the spike kernel
    amplitude     -- plasticity amplitude C; C <= 1 keeps every unsupervised
                     weight change strictly smaller than the weight itself
    threshold     -- firing threshold S
    half_interval -- half the assumed constant interspike interval A
    """

    decay: float = 1.0
    amplitude: float = 1.0
    threshold: float = 1.0
    half_interval: float = 1.0

    def __post_init__(self):
        if not 0 < self.decay < math.inf:
            raise ValueError("decay must be positive and finite")
        if not 0 < self.amplitude <= 1:
            raise ValueError("amplitude must be in (0, 1]")
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if not 0 < self.half_interval < math.inf:
            raise ValueError("half_interval must be positive and finite")


def potential(arrivals, t: float, decay: float = 1.0) -> float:
    """Superposed potential sum_i w_i e^{decay (tau_i - t)} 1(t >= tau_i)."""
    total = 0.0
    for w, tau in arrivals:
        if w <= 0:
            raise ValueError("weights must be positive")
        if t >= tau:
            total += w * math.exp(decay * (tau - t))
    return total


def next_spike_time(arrivals, threshold: float, decay: float = 1.0) -> float | None:
    """First arrival instant at which the jump-decay potential reaches the
    threshold, or None if it never does.

    Between arrivals the potential only decays, so crossings can only
    happen at arrival instants.
    """
    ordered = sorted(arrivals, key=itemgetter(1))
    level = 0.0
    prev_t = None
    for w, tau in ordered:
        if w <= 0:
            raise ValueError("weights must be positive")
        if prev_t is not None:
            level *= math.exp(decay * (prev_t - tau))
        level += w
        prev_t = tau
        if level >= threshold:
            return tau
    return None


def interarrival_time(weights, offsets, threshold: float) -> float:
    """Idealized interspike-interval relation T = 2 ln(sum w e^U / S).

    Depends on (weights, offsets) only through the products w_i e^{U_i}, so
    rescaling (w, U) -> (lam * w, U - ln lam) edge by edge leaves the value
    unchanged up to floating rounding. Raises ValueError when the drive
    sum w e^U falls below the threshold (the neuron would not fire).
    """
    w = np.asarray(weights, dtype=np.float64)
    u = np.asarray(offsets, dtype=np.float64)
    if w.shape != u.shape:
        raise ValueError("weights and offsets must have equal length")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    drive = _drive(w, u)
    if drive < threshold:
        raise ValueError(
            f"total drive {drive:g} below threshold {threshold:g}: neuron does not fire"
        )
    return 2.0 * math.log(drive / threshold)


def _drive(weights, offsets) -> float:
    """sum_i w_i e^{U_i}; a sum past the float range is inf, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(np.asarray(weights) * np.exp(np.asarray(offsets))))


def _kernels(weights, arrivals, t_minus, t_plus, decay: float) -> tuple:
    """Depression and potentiation kernels e^{-c(tau - T-)} and e^{-c(T+ - tau)},
    elementwise over float64 arrays of presynaptic spikes.

    Each exponential is ``math.exp``'s value: ``np.exp`` differs from it in
    the last bit for a few percent of arguments.
    """
    inside = (t_minus <= arrivals) & (arrivals <= t_plus)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(f"arrival {arrivals[k]:g} outside postsynaptic window "
                         f"[{t_minus[k]:g}, {t_plus[k]:g}]")
    if np.any(weights <= 0):
        raise ValueError("weight must be positive")
    depress = np.array(list(map(math.exp, (-decay * (arrivals - t_minus)).tolist())))
    potentiate = np.array(list(map(math.exp, (-decay * (t_plus - arrivals)).tolist())))
    return depress, potentiate


def _stdp_step(weight, gain: float, amplitude: float, depress, potentiate):
    """w + gain * w * C * (depress - potentiate).

    The reward-modulated rule has gain alpha * reward_delta; the
    unsupervised rule is the same step with gain -1, and equals
    w + w * C * (-depress + potentiate) bit for bit, since negation is exact.
    """
    return weight + gain * weight * amplitude * (depress - potentiate)


def stdp_update(weight: float, arrival: float, t_minus: float, t_plus: float,
                params: KernelParams, reward_delta: float | None = None,
                alpha: float = 1.0) -> float:
    """One spike-timing plasticity update for a single edge.

    The presynaptic spike arrives at ``arrival`` between the postsynaptic
    firing times ``t_minus`` and ``t_plus``. Without a reward signal the
    weight moves by w * C * (-e^{-c(tau - T-)} + e^{-c(T+ - tau)}): it is
    depressed in proportion to the time since the last postsynaptic spike
    and potentiated in proportion to how soon the next one follows. With a
    loss-difference ``reward_delta`` the change is sign-flipped and scaled,
    w += alpha * reward_delta * w * C * (e^{-c(tau - T-)} - e^{-c(T+ - tau)}),
    so that a worse-than-anticipated outcome pushes the weight the other way.
    This is :func:`plasticity_update`'s rule for one edge, computed the same way.
    """
    w, tau, t_lo, t_hi = (np.array([x], dtype=np.float64)
                          for x in (weight, arrival, t_minus, t_plus))
    gain = -1.0 if reward_delta is None else alpha * reward_delta
    # float64 arrays round as Python floats do, and overflow as silently
    with np.errstate(all="ignore"):
        depress, potentiate = _kernels(w, tau, t_lo, t_hi, params.decay)
        return float(_stdp_step(w, gain, params.amplitude, depress, potentiate)[0])


@dataclass
class TrialRecord:
    """Everything observable from one trial."""

    arrivals: dict
    offsets: dict
    firing: dict
    readout: float
    output_neuron: int
    output_fired: bool
    fired_edges: tuple = field(default_factory=tuple)


def run_trial(topology: Topology, weights: dict, input_times: dict,
              params: KernelParams, gen: np.random.Generator | None = None,
              offsets: dict | None = None, readout_scale: float = 1.0,
              readout_offset: float = 0.0,
              sentinel: float = NO_FIRE_READOUT) -> TrialRecord:
    """Simulate one trial: one spike per edge, threshold firing, readout.

    Input neurons fire at the assigned ``input_times`` (a time of None
    silences that input for the trial). Every edge gets a timing offset U,
    drawn uniform on [-A, A] unless forced via ``offsets``; the spike from
    i to j arrives at firing(i) + U_ij. Firing times use the jump-decay
    crossing semantics. The readout is an affine function of the idealized
    interarrival relation at the first output neuron, computed over edges
    whose parent fired; trials where the output drive stays below threshold
    get the ``sentinel`` readout so a loss is always defined.
    """
    edge_list = topology.edges
    w = _by_edge(weights, edge_list, "weight")
    bad = next((e for e, x in zip(edge_list, w) if x <= 0), None)
    if bad is not None:
        raise ValueError(f"weight for edge {bad} must be positive")
    for i in topology.inputs:
        if i not in input_times:
            raise ValueError(f"missing input spike time for neuron {i}")

    a = params.half_interval
    if offsets is None:
        if gen is None:
            raise ValueError("run_trial needs a generator unless offsets are forced")
        u = gen.uniform(-a, a, size=len(edge_list)).tolist()
        offsets = dict(zip(edge_list, u))
    else:
        u = _by_edge(offsets, edge_list, "offset")

    # the walk runs on edge indices: w, u and each neuron's fan-in are lists
    # and tuples in edge order, and the dicts of the record are built once
    fan_in, inputs = topology._fan_in, topology._input_set
    threshold, decay = params.threshold, params.decay
    times = [None] * topology.n_neurons
    arrival = {}                   # edge index -> arrival time, in delivery order
    for j in topology.order:
        if j in inputs:
            assigned = input_times[j]
            times[j] = None if assigned is None else float(assigned)
            continue
        incoming = []
        for k, i in fan_in[j]:
            fired = times[i]
            if fired is None:
                continue
            tau = fired + u[k]
            arrival[k] = tau
            incoming.append((w[k], tau))
        times[j] = next_spike_time(incoming, threshold, decay) if incoming else None

    out = topology.outputs[0]
    live = [k for k, i in fan_in[out] if times[i] is not None]
    output_fired = False
    readout = sentinel
    if live:
        live_w = [w[k] for k in live]
        live_u = [u[k] for k in live]
        if _drive(live_w, live_u) >= threshold:
            output_fired = True
            readout = (readout_scale * interarrival_time(live_w, live_u, threshold)
                       + readout_offset)

    fired_edges = tuple([edge_list[k] for k in arrival])
    return TrialRecord(arrivals=dict(zip(fired_edges, arrival.values())),
                       offsets=dict(offsets), firing={j: times[j] for j in topology.order},
                       readout=readout, output_neuron=out, output_fired=output_fired,
                       fired_edges=fired_edges)


def _by_edge(values: dict, edges: tuple, what: str) -> list:
    """``values[e]`` for every edge in order; a missing edge is a ValueError."""
    try:
        return [values[e] for e in edges]
    except KeyError:
        missing = next(e for e in edges if e not in values)
        raise ValueError(f"missing {what} for edge {missing}") from None


def plasticity_update(topology: Topology, weights: dict, record: TrialRecord,
                      params: KernelParams, reward_delta: float | None = None,
                      alpha: float = 1.0) -> dict:
    """The weights after one trial's spike-timing plasticity.

    An edge whose spike reached a neuron that fired at T+ moves as
    :func:`stdp_update` prescribes for the window [T+ - 2A, T+] and the
    spike at T+ - A + U, with U the edge's offset in ``record``: by the
    unsupervised change, plus the reward-modulated change when
    ``reward_delta`` is given. Both changes come from one evaluation of the
    two kernels. Every other edge keeps its weight. As in
    :func:`stdp_update`, a spike outside its window or a moving edge's
    weight that is not positive raises ValueError.
    """
    firing, arrivals = record.firing, record.arrivals
    moved = [e for e in topology.edges if e in arrivals and firing.get(e[1]) is not None]
    w = np.array([weights[e] for e in moved], dtype=np.float64)
    t_plus = np.array([firing[j] for _, j in moved], dtype=np.float64)
    u = np.array([record.offsets[e] for e in moved], dtype=np.float64)
    a = params.half_interval
    with np.errstate(all="ignore"):
        t_minus = t_plus - 2.0 * a
        depress, potentiate = _kernels(w, t_minus + a + u, t_minus, t_plus, params.decay)
        new = _stdp_step(w, -1.0, params.amplitude, depress, potentiate)
        if reward_delta is not None:
            new += _stdp_step(w, alpha * reward_delta, params.amplitude, depress, potentiate) - w
    updated = dict(weights)
    updated.update(zip(moved, new.tolist()))
    return updated
