"""Per-layer spans recorded from outside the package.

A traced run replaces the package's public functions, at the name each
caller looks up, with wrappers that record one span per call: name,
start, end and parent.  The wrappers pass arguments and return values
through unchanged and are removed again after the traced command, so
untraced runs execute the package exactly as shipped.

Self time is a span's duration minus the durations of its children; a
layer's ``busy_s`` is the sum of its spans' self times.  Time spent in
unwrapped code is charged to the nearest wrapped caller, and whatever no
layer claims stays with the root span ``cli.main``.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from collections import Counter, defaultdict
from functools import update_wrapper

ROOT = "cli.main"
ARMS = 2

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("bsm.class_probability_grid.calls", "count", "lower"),
    ("bsm.class_probability_grid.busy_s", "s", "lower"),
    ("bsm.grid_evals", "count", "lower"),
    ("engine.sample_window_counts.busy_s", "s", "lower"),
    ("engine.multinomial_draws", "count", "lower"),
    ("engine.accumulate_tallies.busy_s", "s", "lower"),
    ("engine.conservation_counts.busy_s", "s", "lower"),
    ("engine.recycled_singles.busy_s", "s", "lower"),
    ("decoy.TallySet.record.calls", "count", "lower"),
    ("decoy.TallySet.record.busy_s", "s", "lower"),
    ("decoy.bound_y11_e11.busy_s", "s", "lower"),
    ("decoy.key_rate.busy_s", "s", "lower"),
    ("polarization.DriftProcess.step.busy_s", "s", "lower"),
    ("polarization.squeezer_unitary.busy_s", "s", "lower"),
    ("polarization.misalignment_angles.busy_s", "s", "lower"),
    ("compensation.estimate_theta.busy_s", "s", "lower"),
    ("compensation.control_step.busy_s", "s", "lower"),
    ("compensation.ReferenceTracker.update.busy_s", "s", "lower"),
    ("compensation.control_step.fired", "count", "lower"),
    ("wire.encode_message.calls", "count", "lower"),
    ("wire.encode_message.busy_s", "s", "lower"),
    ("wire.encode_message.bytes", "B", "lower"),
    ("wire.FrameDecoder.feed.busy_s", "s", "lower"),
    ("wire.FrameDecoder.feed.frames", "count", "lower"),
    ("wire.bytes_per_window", "B/window", "lower"),
    ("nodes.CharlieNode.handle.busy_s", "s", "lower"),
    ("nodes.UserNode.handle.busy_s", "s", "lower"),
    ("nodes.messages_per_window", "count/window", "lower"),
    ("nodes.transport_wait_s", "s", "lower"),
    ("nodes.children_peak_rss_mb", "MB", "lower"),
    ("session.run_session.busy_s", "s", "lower"),
    ("session.analyze_tallies.busy_s", "s", "lower"),
    ("session.sample_window_slots.busy_s", "s", "lower"),
    ("session.sift.busy_s", "s", "lower"),
    ("session.recycle_singles.busy_s", "s", "lower"),
    ("session.detected_per_slot", "ratio", "higher"),
    ("transmitter.draw_decisions.busy_s", "s", "lower"),
    ("transmitter.draw_phases.busy_s", "s", "lower"),
    ("reporting.emit_traces.busy_s", "s", "lower"),
    ("reporting.emit_traces.bytes", "B", "lower"),
    ("config.load_profile.busy_s", "s", "lower"),
    ("config.read_config_file.busy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.layer_self_sum_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _grid_evals(counters, call, result):
    # cells x arms x phase points; a kernel without a phase grid counts 1.
    n_phase = call().get("n_phase", 1)
    counters["bsm.grid_evals"] += result.shape[0] * result.shape[1] * ARMS \
        * n_phase


def _multinomial_draws(counters, call, result):
    # One draw over the combinations plus one per occupied combination.
    counters["engine.multinomial_draws"] += int((result[0] != 0).sum()) + 1


def _fired(counters, call, result):
    counters["compensation.control_step.fired"] += result is not None


def _encoded_bytes(counters, call, result):
    counters["wire.encode_message.bytes"] += len(result)


def _frames(counters, call, result):
    counters["wire.FrameDecoder.feed.frames"] += len(result)


def _detected(counters, call, result):
    counters["session.announced_slots"] += len(result[0])
    counters["session.materialized_slots"] += call()["n_slots"]


def _emitted_bytes(counters, call, result):
    counters["reporting.emit_traces.bytes"] += sum(
        os.path.getsize(path) for path in result.values())


def targets(pkg):
    """(owner, attribute, span name, counter) for every traced call site.

    Functions imported by name are patched in the importing module;
    ``engine.*`` calls and methods are patched on the module or class.
    """
    cli, engine, nodes, session = pkg.cli, pkg.engine, pkg.nodes, pkg.session
    return (
        (cli, "run_session", "session.run_session", None),
        (cli, "load_profile", "config.load_profile", None),
        (cli, "read_config_file", "config.read_config_file", None),
        (cli, "emit_traces", "reporting.emit_traces", _emitted_bytes),
        (engine, "class_probability_grid", "bsm.class_probability_grid",
         _grid_evals),
        (engine, "sample_window_counts", "engine.sample_window_counts",
         _multinomial_draws),
        (engine, "accumulate_tallies", "engine.accumulate_tallies", None),
        (engine, "conservation_counts", "engine.conservation_counts", None),
        (engine, "recycled_singles", "engine.recycled_singles", None),
        (pkg.decoy.TallySet, "record", "decoy.TallySet.record", None),
        (session, "bound_y11_e11", "decoy.bound_y11_e11", None),
        (session, "key_rate", "decoy.key_rate", None),
        (session, "draw_decisions", "transmitter.draw_decisions", None),
        (session, "draw_phases", "transmitter.draw_phases", None),
        (pkg.polarization.DriftProcess, "step",
         "polarization.DriftProcess.step", None),
        (nodes, "squeezer_unitary", "polarization.squeezer_unitary", None),
        (nodes, "misalignment_angles", "polarization.misalignment_angles",
         None),
        (nodes, "estimate_theta", "compensation.estimate_theta", None),
        (nodes, "control_step", "compensation.control_step", _fired),
        (pkg.compensation.ReferenceTracker, "update",
         "compensation.ReferenceTracker.update", None),
        (nodes, "encode_message", "wire.encode_message", _encoded_bytes),
        (pkg.wire.FrameDecoder, "feed", "wire.FrameDecoder.feed", _frames),
        (nodes.CharlieNode, "handle", "nodes.CharlieNode.handle", None),
        (nodes.UserNode, "handle", "nodes.UserNode.handle", None),
        (nodes, "sample_window_slots", "session.sample_window_slots",
         _detected),
        (nodes, "sift", "session.sift", None),
        (nodes, "recycle_singles", "session.recycle_singles", None),
        (nodes, "analyze_tallies", "session.analyze_tallies", None),
    )


class Tracer:
    """Spans and counters of one traced command, kept in memory.

    Span i is (names[i], starts[i], ends[i], parents[i]); a parent of
    -1 marks a root.  Flat arrays keep the spans out of the garbage
    collector's way while the traced command runs.
    """

    def __init__(self):
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: Counter = Counter()
        self._stack: list = [-1]
        self._patches: list = []

    def wrap(self, name: str, fn, count=None):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, counters = self._stack, self.counters
        clock = time.perf_counter
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(counters, lambda: _bound(signature, args, kwargs),
                      result)
            return result

        return update_wrapper(traced, fn)

    def install(self, sites) -> None:
        """Patch every call site whose attribute exists."""
        for owner, attr, name, count in sites:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            own = attr in vars(owner)
            self._patches.append((owner, attr, original, own))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def own_times(self) -> list:
        """Self time of every span: its duration minus its children's."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def self_times(self) -> tuple:
        """({name: summed self time}, {name: call count})."""
        busy: dict = defaultdict(float)
        for name, value in zip(self.names, self.own_times()):
            busy[name] += value
        return busy, Counter(self.names)


def _bound(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def layer_metrics(tracer: Tracer, wall: float, windows: int,
                  networked: bool, children_rss_mb: float) -> dict:
    """Per-layer values of one traced command that took `wall` seconds,
    except the two trace.* metrics that need the untraced samples."""
    busy, calls = tracer.self_times()
    counters = tracer.counters
    values = {}
    for name, _unit, _better in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "busy_s":
            values[name] = busy.get(stem, 0.0)
        elif kind == "calls":
            values[name] = calls.get(stem, 0)
    values.update({
        "bsm.grid_evals": counters["bsm.grid_evals"],
        "engine.multinomial_draws": counters["engine.multinomial_draws"],
        "compensation.control_step.fired":
            counters["compensation.control_step.fired"],
        "wire.encode_message.bytes": counters["wire.encode_message.bytes"],
        "wire.FrameDecoder.feed.frames":
            counters["wire.FrameDecoder.feed.frames"],
        "wire.bytes_per_window":
            counters["wire.encode_message.bytes"] / windows,
        "nodes.messages_per_window":
            calls.get("wire.encode_message", 0) / windows,
        "nodes.transport_wait_s":
            busy.get("session.run_session", 0.0) if networked else 0.0,
        "nodes.children_peak_rss_mb": children_rss_mb,
        "session.detected_per_slot":
            (counters["session.announced_slots"]
             / counters["session.materialized_slots"]
             if counters["session.materialized_slots"] else 0.0),
        "reporting.emit_traces.bytes":
            counters["reporting.emit_traces.bytes"],
        "trace.wall_s": wall,
        "trace.layer_self_sum_s":
            sum(value for name, value in busy.items() if name != ROOT),
        "trace.spans": len(tracer.names),
    })
    return values
