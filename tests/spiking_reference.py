"""The scalar spiking engine as it was before parents were precomputed.

``reference_trial`` walks the edge list once per neuron to find its
parents and evaluates each plasticity kernel twice per edge, exactly as
``run_trial`` and the ``spike-demo`` plasticity loop once did, and
``reference_spike_demo`` is the ``spike-demo`` trial loop on dicts keyed by
edge, writing its rows at the end. The tests hold the edge-indexed engine
in ``spikezero.spiking`` and the streaming ``spike-demo`` to them bit for
bit. They use only the topology's edges, inputs, outputs and order, so the
engine's precomputed tables are not part of what they check.
"""

import math

import numpy as np

from spikezero.core import RngStream


def _parents(topology, j):
    return [i for i, k in topology.edges if k == j]


def _next_spike_time(arrivals, threshold, decay):
    ordered = sorted(arrivals, key=lambda wt: wt[1])
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


def _interarrival_time(weights, offsets, threshold):
    w = np.asarray(weights, dtype=np.float64)
    u = np.asarray(offsets, dtype=np.float64)
    drive = float(np.sum(w * np.exp(u)))
    if drive < threshold:
        raise ValueError("neuron does not fire")
    return 2.0 * math.log(drive / threshold)


def reference_stdp_update(weight, arrival, t_minus, t_plus, params, reward_delta=None,
                          alpha=1.0):
    if not t_minus <= arrival <= t_plus:
        raise ValueError("arrival outside postsynaptic window")
    if weight <= 0:
        raise ValueError("weight must be positive")
    c = params.decay
    depress = math.exp(-c * (arrival - t_minus))
    potentiate = math.exp(-c * (t_plus - arrival))
    if reward_delta is None:
        return weight + weight * params.amplitude * (-depress + potentiate)
    return weight + alpha * reward_delta * weight * params.amplitude * (depress - potentiate)


def reference_trial(topology, weights, input_times, params, offsets,
                    readout_scale=1.0, readout_offset=0.0, sentinel=1e6):
    """(arrivals, firing, readout, output_fired, fired_edges) of one trial."""
    firing = {}
    arrivals = {}
    fired_edges = []
    for j in topology.order:
        if j in topology.inputs:
            assigned = input_times[j]
            firing[j] = None if assigned is None else float(assigned)
            continue
        incoming = []
        for i in _parents(topology, j):
            if firing.get(i) is None:
                continue
            e = (i, j)
            arrivals[e] = firing[i] + offsets[e]
            fired_edges.append(e)
            incoming.append((weights[e], arrivals[e]))
        firing[j] = (_next_spike_time(incoming, params.threshold, params.decay)
                     if incoming else None)

    out = topology.outputs[0]
    live = [(i, out) for i in _parents(topology, out) if firing.get(i) is not None]
    output_fired = False
    readout = sentinel
    if live:
        w = [weights[e] for e in live]
        u = [offsets[e] for e in live]
        drive = float(np.sum(np.asarray(w) * np.exp(np.asarray(u))))
        if drive >= params.threshold:
            output_fired = True
            readout = readout_scale * _interarrival_time(w, u, params.threshold) + readout_offset
    return arrivals, firing, readout, output_fired, tuple(fired_edges)


def reference_plasticity(topology, weights, arrivals, firing, offsets, params,
                         reward_delta=None, alpha=1.0):
    """Weights after the plasticity loop ``spike-demo`` ran after each trial."""
    a = params.half_interval
    updated = dict(weights)
    for (i, j) in topology.edges:
        t_plus = firing.get(j)
        if t_plus is None or (i, j) not in arrivals:
            continue
        t_minus = t_plus - 2.0 * a
        tau = t_minus + a + offsets[(i, j)]
        w = weights[(i, j)]
        new_w = reference_stdp_update(w, tau, t_minus, t_plus, params)
        if reward_delta is not None:
            modulated = reference_stdp_update(w, tau, t_minus, t_plus, params,
                                     reward_delta=reward_delta, alpha=alpha)
            new_w += modulated - w
        updated[(i, j)] = new_w
    return updated


def reference_spike_demo(topology, weights, input_times, params, trials, seed,
                         readout_scale=1.0, readout_offset=0.0, sentinel=1e6,
                         reward_delta=None, alpha=1.0, plasticity=True, lam=None):
    """(CSV text, exit code, stderr) of ``spike-demo`` on these inputs.

    ``weights`` and ``lam`` are dicts keyed by edge, ``input_times`` a dict
    keyed by input neuron; ``lam`` is the transform, which needs plasticity
    off.
    """
    edges = topology.edges
    a = params.half_interval
    gen = RngStream(seed).substream(0).generator()
    out = topology.outputs[0]
    lines = ["trial,edge_or_neuron,kind,value"]
    current = dict(weights)
    for t in range(trials):
        offsets = dict(zip(edges, gen.uniform(-a, a, size=len(edges)).tolist()))
        if lam is not None:
            use_weights = {e: lam[e] * current[e] for e in edges}
            offsets = {e: offsets[e] - math.log(lam[e]) for e in edges}
        else:
            use_weights = current
        arrivals, firing, readout, _, _ = reference_trial(
            topology, use_weights, input_times, params, offsets,
            readout_scale=readout_scale, readout_offset=readout_offset, sentinel=sentinel)
        if plasticity:
            current = reference_plasticity(topology, current, arrivals, firing, offsets, params,
                                           reward_delta=reward_delta, alpha=alpha)
        lines += [f"{t},{i}->{j},arrival,{arrivals[(i, j)]:.12g}"
                  for i, j in edges if (i, j) in arrivals]
        lines += [f"{t},{nid},firing,{firing[nid]:.12g}"
                  for nid in sorted(firing) if firing[nid] is not None]
        lines.append(f"{t},{out},readout,{readout:.12g}")
        lines += [f"{t},{i}->{j},weight,{current[(i, j)]:.12g}" for i, j in edges]
        if plasticity:
            bad = next((e for e in edges if not 0 < current[e] < math.inf), None)
            if bad is not None:
                return ("\n".join(lines) + "\n", 1,
                        f"spike-demo failed at trial {t}: plasticity left edge "
                        f"{bad[0]}->{bad[1]} with weight {current[bad]!r}\n")
    return "\n".join(lines) + "\n", 0, ""
