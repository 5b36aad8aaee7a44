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

A :class:`Topology` precomputes each neuron's incoming edges and each
edge's child neuron once, so a trial costs O(E) rather than a scan of the
edge list per neuron. The trial walk and the plasticity pass run on lists
in edge order: one weight, timing offset and arrival time (None where no
spike arrived) per edge, and one firing time per neuron. :func:`run_trial`
takes its weights and offsets as such lists or as dicts keyed by edge, and
its :class:`TrialRecord` spells the lists out as dicts on request.
:func:`plasticity_update` applies one trial's plasticity to every edge with
one kernel evaluation per edge, from which both the unsupervised and the
reward-modulated change follow; it returns a list for a list and a dict for
a dict. :func:`stdp_update` is the same rule for a single edge.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

__all__ = [
    "Topology",
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
        if any(len(edge) != 2 for edge in self.edges):
            raise ValueError("every edge must be a pair of neurons [i, j]")
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
        fan_in = tuple(map(tuple, fan_in))
        object.__setattr__(self, "_fan_in", fan_in)
        object.__setattr__(self, "_child", tuple(j for _, j in edges))
        # the neurons a trial walks, in topological order with their fan-in;
        # an input neuron fires at its assigned time, whatever reaches it
        walk = tuple((j, fan_in[j]) for j in order if j not in inputs)
        object.__setattr__(self, "_walk", walk)
        # edge indices in the order a trial delivers their spikes
        object.__setattr__(self, "_delivery", tuple(k for _, fan in walk for k, _ in fan))

    @property
    def order(self) -> tuple:
        """Neurons in a topological order (parents before children)."""
        return self._order

    def parents(self, j: int) -> list:
        if not 0 <= j < self.n_neurons:
            return []
        return [i for _, i in self._fan_in[j]]


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
    exp = math.exp
    level = 0.0
    prev_t = None
    for w, tau in sorted(arrivals, key=_arrival_time):
        if w <= 0:
            raise ValueError("weights must be positive")
        if prev_t is not None:
            level *= exp(decay * (prev_t - tau))
        level += w
        if level >= threshold:
            return tau
        prev_t = tau
    return None


_arrival_time = itemgetter(1)


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
    """Everything observable from one trial.

    ``arrival_times`` and ``edge_offsets`` hold one value per edge in edge
    order, an arrival time of None marking an edge whose spike never
    arrived; ``firing_times`` holds one firing time per neuron, None for a
    neuron that stayed silent. ``arrivals``, ``offsets``, ``firing`` and
    ``fired_edges`` spell them out by edge and by neuron.
    """

    topology: Topology
    arrival_times: list
    edge_offsets: list
    firing_times: list
    readout: float
    output_neuron: int
    output_fired: bool

    @property
    def arrivals(self) -> dict:
        """Arrival time by edge, in delivery order; only edges whose spike arrived."""
        edges, arrival = self.topology.edges, self.arrival_times
        return {edges[k]: arrival[k] for k in self.topology._delivery
                if arrival[k] is not None}

    @property
    def fired_edges(self) -> tuple:
        """The edges whose spike arrived, in the order the trial delivered them."""
        return tuple(self.arrivals)

    @property
    def offsets(self) -> dict:
        return dict(zip(self.topology.edges, self.edge_offsets))

    @property
    def firing(self) -> dict:
        """Firing time by neuron, in topological order."""
        times = self.firing_times
        return {j: times[j] for j in self.topology.order}


def run_trial(topology: Topology, weights, input_times: dict,
              params: KernelParams, gen: np.random.Generator | None = None,
              offsets=None, readout_scale: float = 1.0, readout_offset: float = 0.0,
              sentinel: float = NO_FIRE_READOUT) -> TrialRecord:
    """Simulate one trial: one spike per edge, threshold firing, readout.

    ``weights`` and ``offsets`` are dicts keyed by edge or sequences of
    floats in edge order. Input neurons fire at the assigned
    ``input_times`` (a time of None silences that input for the trial).
    Every edge gets a timing offset U, drawn uniform on [-A, A] unless
    forced via ``offsets``; the spike from i to j arrives at
    firing(i) + U_ij. Firing times use the jump-decay crossing semantics.
    The readout is an affine function of the idealized interarrival
    relation at the first output neuron, computed over edges whose parent
    fired; trials where the output drive stays below threshold get the
    ``sentinel`` readout so a loss is always defined.
    """
    w = _by_edge(weights, topology, "weight")
    bad = next((e for e, x in zip(topology.edges, w) if x <= 0), None)
    if bad is not None:
        raise ValueError(f"weight for edge {bad} must be positive")
    for i in topology.inputs:
        if i not in input_times:
            raise ValueError(f"missing input spike time for neuron {i}")

    if offsets is None:
        if gen is None:
            raise ValueError("run_trial needs a generator unless offsets are forced")
        a = params.half_interval
        u = gen.uniform(-a, a, size=len(topology.edges)).tolist()
    else:
        u = _by_edge(offsets, topology, "offset")

    times = [None] * topology.n_neurons
    for i in topology.inputs:
        assigned = input_times[i]
        times[i] = None if assigned is None else float(assigned)
    threshold, decay = params.threshold, params.decay
    spike_time = next_spike_time
    arrival = [None] * len(u)
    for j, fan in topology._walk:
        incoming = []
        for k, i in fan:
            fired = times[i]
            if fired is not None:
                tau = arrival[k] = fired + u[k]
                incoming.append((w[k], tau))
        if incoming:
            times[j] = spike_time(incoming, threshold, decay)

    out = topology.outputs[0]
    live = [k for k, i in topology._fan_in[out] if times[i] is not None]
    output_fired = False
    readout = sentinel
    if live:
        live_w = [w[k] for k in live]
        live_u = [u[k] for k in live]
        if _drive(live_w, live_u) >= threshold:
            output_fired = True
            readout = (readout_scale * interarrival_time(live_w, live_u, threshold)
                       + readout_offset)
    return TrialRecord(topology, arrival, u, times, readout, out, output_fired)


def _by_edge(values, topology: Topology, what: str) -> list:
    """``values`` as a list in edge order: a dict is looked up by edge, where
    a missing edge is a ValueError; a sequence must hold one value per edge."""
    edges = topology.edges
    if isinstance(values, dict):
        try:
            return [values[e] for e in edges]
        except KeyError:
            missing = next(e for e in edges if e not in values)
            raise ValueError(f"missing {what} for edge {missing}") from None
    values = list(values)
    if len(values) != len(edges):
        raise ValueError(f"expected one {what} per edge ({len(edges)}), not {len(values)}")
    return values


def plasticity_update(topology: Topology, weights, record: TrialRecord,
                      params: KernelParams, reward_delta: float | None = None,
                      alpha: float = 1.0):
    """The weights after one trial's spike-timing plasticity.

    ``weights`` is a dict keyed by edge, and the result a dict with the
    same keys, or a sequence of floats in edge order, and the result a
    list. An edge whose spike reached a neuron that fired at T+ moves as
    :func:`stdp_update` prescribes for the window [T+ - 2A, T+] and the
    spike at T+ - A + U, with U the edge's offset in ``record``: by the
    unsupervised change, plus the reward-modulated change when
    ``reward_delta`` is given. Both changes come from one evaluation of the
    two kernels. Every other edge keeps its weight. As in
    :func:`stdp_update`, a spike outside its window or a moving edge's
    weight that is not positive raises ValueError.
    """
    w = _by_edge(weights, topology, "weight")
    times, u = record.firing_times, record.edge_offsets
    child = topology._child
    moving = [k for k, x in enumerate(record.arrival_times)
              if x is not None and times[child[k]] is not None]
    w_moving = np.array([w[k] for k in moving], dtype=np.float64)
    t_plus = np.array([times[child[k]] for k in moving], dtype=np.float64)
    u_moving = np.array([u[k] for k in moving], dtype=np.float64)
    a = params.half_interval
    with np.errstate(all="ignore"):
        t_minus = t_plus - 2.0 * a
        depress, potentiate = _kernels(w_moving, t_minus + a + u_moving, t_minus, t_plus,
                                       params.decay)
        moved = _stdp_step(w_moving, -1.0, params.amplitude, depress, potentiate)
        if reward_delta is not None:
            moved += _stdp_step(w_moving, alpha * reward_delta, params.amplitude, depress,
                                potentiate) - w_moving
    new = list(w)
    for k, x in zip(moving, moved.tolist()):
        new[k] = x
    if isinstance(weights, dict):
        updated = dict(weights)
        updated.update(zip(topology.edges, new))
        return updated
    return new
