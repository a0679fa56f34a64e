"""Protocol endpoints and transports for a compensation session.

Three nodes take part: two user nodes (alice, bob) that own their
compensator hardware and feedback state, and the measurement node.
Both transports run one serve loop over the same immutable message
objects: in-process, each user node takes them as they are; networked,
each user runs in its own process and they cross TCP sockets as
length-prefixed JSON frames.

Protocol: per window each user sends its compensator state, and the
measurement node (CharlieNode) checks it, replies with a misalignment
announcement estimated from rejected single clicks, and keeps the
window's tallies, conservation check and trace for the session report.
Each user's control step becomes its next compensator state.

Physics: the fiber drift and the detections are the simulator's, kept
beside the measurement node in WindowPhysics.  All randomness is drawn
there, so both transports produce identical reports for identical
configurations.  Compensators change rarely, about every ten windows in
a 4 h reference session, so the node rebuilds a squeezer unitary only
when its retardances' bytes change, and in aggregate sampling the
physics evaluates the optics kernel on a stack of upcoming windows that
lasts until a squeezer changes (WindowPhysics._class_probabilities).
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import socket
import struct
import sys
import traceback
from collections import deque
from typing import NamedTuple

import numpy as np

from . import engine
from .compensation import (ControllerState, MisalignmentEstimate,
                           ReferenceTracker, control_step, pool_counts,
                           pooled_angle)
from .polarization import (DEFAULT_SQUEEZER_AXES, RETARDANCE_LIMIT,
                           DriftProcess, SqueezerBank, misalignment_angles,
                           random_misalignment, squeezer_unitary)
from .session import (SessionConfig, SessionError, SessionFailure,
                      SessionReport, USERS, WindowArms, WindowTrace,
                      analyze_tallies, empty_decisions, recycle_singles,
                      sample_window_slots, sift, slot_decisions,
                      summarize_sifted, user_reveals)
from .decoy import TallySet
from .wire import (CompensatorState, FrameDecoder, MisalignmentAnnouncement,
                   SessionEnd, WireError, encode_message)

SOCKET_TIMEOUT_S = 60.0

# Slots the per-slot backend samples per call.  Its memory grows with
# this, not with the window.  On 1.2e7 slots (2e5 Hz for 60 s, median of
# five runs, each in a fresh process, on a 2-core Intel Xeon, Python
# 3.11, numpy 2.4, hash blocks of 2^16 slots) 2^16 took 0.49 s at 46 MB
# peak RSS, 2^17 0.41 s at 48 MB, 2^18 0.38 s at 53 MB, 2^19 0.42 s at
# 63 MB and 2^20 0.46 s at 82 MB: up to 2^18, larger chunks hand fewer
# chunks to the helper thread; beyond it, sessions slow down again and
# memory grows.
SLOT_CHUNK = 1 << 18

# Windows one optics kernel call evaluates at most.  Per window, a
# reference-settings kernel call took 75 us alone, 47 us in a stack of 2,
# 32 us in 4, 24 us in 8 and 22 us in 10, but 29-31 us in stacks of 12
# and 16 (best of seven, 2-core Intel Xeon, Python 3.11, numpy 2.4).
# Stacks double from 2, so 8 is the last depth that still gains.
MAX_STACK = 8

# Seed-stream tags keep the independent random streams decoupled while
# remaining pure functions of the session seed.
_STREAM_INIT_A = 0xA0
_STREAM_INIT_B = 0xB0
_STREAM_DRIFT_A = 0xA1
_STREAM_DRIFT_B = 0xB1
_STREAM_SAMPLER = 0xC0

# Checked retardances as the key of a cached squeezer unitary.  The
# bytes tell -0.0 from 0.0, whose unitaries differ in the sign of a zero.
_RETARDANCE_KEY = struct.Struct(f"<{len(DEFAULT_SQUEEZER_AXES)}d")


class _Stack(NamedTuple):
    """Class probabilities of consecutive aggregate windows, from one call.

    start: index of the first window.
    keys: the bytes of alice's and bob's squeezer unitaries that the
      stack was computed under.
    probabilities: (depth, 12, 12, 4) class probabilities, one entry per
      window from `start` on.
    """

    start: int
    keys: tuple
    probabilities: np.ndarray


class UserNode:
    """One sender's protocol endpoint: compensator plus feedback memory."""

    def __init__(self, name: str, config: SessionConfig):
        if name not in USERS:
            raise SessionError(f"unknown user {name!r}")
        self.name = name
        self.config = config
        self.bank = SqueezerBank()
        self.controller = ControllerState(n_squeezers=len(self.bank))
        self.last_theta = {"Z": None, "X": None}
        self._fresh = {"Z": False, "X": False}
        self.finished = False

    def _compensator_state(self, window: int, triggered: bool) -> CompensatorState:
        retardances = tuple(self.bank.retardances.tolist())
        return CompensatorState(user=self.name, window=window,
                                retardances=retardances, triggered=triggered)

    def initial_message(self) -> CompensatorState:
        return self._compensator_state(0, False)

    def handle(self, message) -> list:
        """React to one message from the measurement node."""
        if isinstance(message, MisalignmentAnnouncement):
            if message.user != self.name:
                raise SessionFailure(
                    f"{self.name} received an announcement addressed to "
                    f"{message.user!r}")
            if message.theta_z is not None:
                self.last_theta["Z"] = message.theta_z
                self._fresh["Z"] = True
            if message.theta_x is not None:
                self.last_theta["X"] = message.theta_x
                self._fresh["X"] = True
            triggered = False
            # Evaluate the feedback only on coherent estimates: both basis
            # angles measured since the last evaluation.  Judging a step
            # against a half-stale error signal produces phantom
            # worsened/improved verdicts and direction churn.
            if self.config.compensation_enabled and all(self._fresh.values()):
                estimate = MisalignmentEstimate(theta_z=self.last_theta["Z"],
                                                theta_x=self.last_theta["X"])
                record = control_step(self.controller, estimate,
                                      self.config.controller, self.bank)
                triggered = record is not None
                self._fresh = {"Z": False, "X": False}
            return [self._compensator_state(message.window + 1, triggered)]
        if isinstance(message, SessionEnd):
            self.finished = True
            return []
        raise SessionFailure(
            f"{self.name} cannot handle message type {type(message).__name__}")


def _check_retardances(message: CompensatorState) -> None:
    """Reject a compensator state the squeezer bank could not hold."""
    values = message.retardances
    if len(values) != len(DEFAULT_SQUEEZER_AXES):
        raise SessionFailure(
            f"{message.user}'s compensator state for window "
            f"{message.window} holds {values!r}, expected "
            f"{len(DEFAULT_SQUEEZER_AXES)} retardances")
    for value in values:
        # bool is an int subclass, so a JSON true would pass as 1.  The
        # one comparison also refuses NaN, infinities and integers of
        # any size, which it compares exactly instead of as floats.
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= RETARDANCE_LIMIT):
            raise SessionFailure(
                f"{message.user}'s compensator state for window "
                f"{message.window} holds retardance {value!r}, outside the "
                f"finite range +/-{RETARDANCE_LIMIT:g}")


class WindowPhysics:
    """Both users' drift walks and the detections of every window, each
    window run once and in schedule order, with no node needed."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.windows = config.windows()
        self.classes = engine.DecisionClasses.build(config.table)
        init_a = random_misalignment(config.initial_misalignment_a,
                                     seed=[config.seed, _STREAM_INIT_A])
        init_b = random_misalignment(config.initial_misalignment_b,
                                     seed=[config.seed, _STREAM_INIT_B])
        self.drift = {
            "alice": DriftProcess(config.drift_rate_a,
                                  seed=[config.seed, _STREAM_DRIFT_A],
                                  initial=init_a),
            "bob": DriftProcess(config.drift_rate_b,
                                seed=[config.seed, _STREAM_DRIFT_B],
                                initial=init_b),
        }
        self.rng = np.random.default_rng([config.seed, _STREAM_SAMPLER])
        # Drift unitaries of the windows after the current one, stepped
        # ahead for a kernel stack, in window order; see
        # _class_probabilities.
        self._drift_ahead: deque = deque()
        self._stack: _Stack | None = None

    def run(self, index: int, squeezers: dict) -> tuple:
        """Window `index` under `squeezers` (user -> unitary): its
        engine.WindowRoutes and each user's true (theta_Z, theta_X)."""
        _, dt, meas_basis = self.windows[index]
        n_slots = self.config.slots_in(dt)
        drift = (self._drift_ahead.popleft() if self._drift_ahead else
                 {user: self.drift[user].step(dt) for user in USERS})
        channels = {user: drift[user] @ squeezers[user] for user in USERS}
        if self.config.sampling == "per-slot":
            routes = self._sample_slots(index, n_slots, meas_basis, channels)
        else:
            class_probs = self._class_probabilities(index, channels,
                                                    squeezers)
            _, outcome_counts = engine.sample_window_counts(
                n_slots, self.classes, class_probs, self.rng)
            routes = engine.route_window(self.classes, meas_basis,
                                         outcome_counts)
        return routes, {user: misalignment_angles(channels[user])
                        for user in USERS}

    def _class_probabilities(self, index: int, channels: dict,
                             squeezers: dict) -> np.ndarray:
        """The aggregate window's class probabilities, from a window stack.

        One kernel call evaluates a stack of upcoming windows under the
        present squeezers, and each later window takes its entry while
        the bytes of both users' squeezer unitaries still match the
        stack's.  A window that the stack does not cover, or whose
        squeezers changed, starts a new stack.  Its depth starts at 2,
        because a controller acts only after a coherent estimate, i.e.
        after an X window, so a Z window always shares its squeezers with
        the next one.  The
        depth doubles, up to MAX_STACK, after a stack was used to its end
        and drops back to 2 after a miss.  For the windows after this
        one the stack needs their drift: each walk is stepped once per
        window, in window order, and the unitaries wait in _drift_ahead
        until their windows run, whether the stack hits or not.  The
        walks are open-loop and draw from their own streams, so stepping
        them early changes no value, and the kernel's stacked results
        equal its single-window ones bit for bit.
        """
        keys = tuple(squeezers[user].tobytes() for user in USERS)
        stack = self._stack
        depth = 2
        if stack is not None:
            offset = index - stack.start
            if offset >= len(stack.probabilities):
                depth = min(2 * len(stack.probabilities), MAX_STACK)
            elif stack.keys == keys:
                return stack.probabilities[offset]
        depth = min(depth, len(self.windows) - index)
        ahead = self._drift_ahead
        while len(ahead) < depth - 1:
            dt = self.windows[index + 1 + len(ahead)][1]
            ahead.append({user: self.drift[user].step(dt) for user in USERS})
        stacked = {user: np.stack([channels[user]] + [
            drift[user] @ squeezers[user]
            for drift in itertools.islice(ahead, depth - 1)])
            for user in USERS}
        probs = engine.window_class_probabilities(
            self.classes, stacked["alice"], stacked["bob"],
            tuple(basis for _, _, basis in
                  self.windows[index:index + depth]),
            self.config.detector)
        self._stack = _Stack(start=index, keys=keys, probabilities=probs)
        return probs[0]

    def _sample_slots(self, index: int, n_slots: int, meas_basis: str,
                      channels: dict) -> engine.WindowRoutes:
        """Per-slot backend: the protocol on slot columns plus cross-checks.

        The window is sampled in chunks of SLOT_CHUNK slots.  A helper
        thread writes the next chunk's decisions into the spare one of
        two buffers while this thread samples the current chunk, so every
        rng draw stays on this thread in slot order.  The pool lives for
        one window and is shut down when it ends or fails.  The window's
        arm coefficients and thinning bounds are built once, and every
        chunk draws its uniforms into one buffer.  Each chunk's
        reveals pass the privacy check on their own, since chunks hold
        disjoint slots; the slot-level recycling and sifting sums are
        checked against the aggregate accounting once per window.
        """
        # Imported here, off the command line's import path.
        from concurrent.futures import ThreadPoolExecutor

        outcome_counts = np.zeros((12, 12, 4), dtype=np.int64)
        slot_singles = {user: {} for user in USERS}
        n_sifted = 0
        chunks = [(start, min(SLOT_CHUNK, n_slots - start))
                  for start in range(0, n_slots, SLOT_CHUNK)]
        # Buffers of the first chunk's size, which no chunk exceeds.
        largest = min(SLOT_CHUNK, n_slots)
        buffers = [empty_decisions(largest) for _ in chunks[:2]]
        uniforms = np.empty((largest, 2))
        arms = WindowArms.build(self.config, self.classes, meas_basis,
                                channels["alice"], channels["bob"])
        with ThreadPoolExecutor(max_workers=1) as pool:
            def decide(chunk: int):
                return pool.submit(slot_decisions, self.config, index,
                                   *chunks[chunk], buffers[chunk % 2])

            pending = decide(0) if chunks else None
            for chunk, (_, size) in enumerate(chunks):
                pending.result()
                if chunk + 1 < len(chunks):
                    pending = decide(chunk + 1)
                slots, outcomes, pairs, counts = sample_window_slots(
                    self.config, size, arms, self.rng, buffers[chunk % 2],
                    uniforms)
                outcome_counts += counts
                reveals, bit_reveals, bits = user_reveals(slots, outcomes,
                                                          pairs)
                singles = recycle_singles(slots, outcomes, reveals["alice"],
                                          reveals["bob"], bit_reveals["alice"],
                                          bit_reveals["bob"], meas_basis)
                for user in USERS:
                    sums = slot_singles[user]
                    for label, (n_wrong, n_total) in singles[user].items():
                        wrong, total = sums.get(label, (0, 0))
                        sums[label] = (wrong + n_wrong, total + n_total)
                kept, summary = sift(slots, outcomes, reveals["alice"],
                                     reveals["bob"], meas_basis, bits["alice"],
                                     bits["bob"])
                n_sifted += summary["n_sifted"]
                revealed = np.concatenate([bit_reveals[user][0]
                                           for user in USERS])
                if np.intersect1d(revealed, kept).size:
                    raise SessionFailure(
                        f"window {index}: privacy violation - revealed bits "
                        "overlap the sifted key")
        routes = engine.route_window(self.classes, meas_basis, outcome_counts)
        for user, singles in zip(USERS, (routes.singles_a, routes.singles_b)):
            # The slot-level route lists only the labels it saw.
            seen = {label: counts for label, counts in singles.items()
                    if counts[1]}
            if seen != slot_singles[user]:
                raise SessionFailure(
                    f"window {index}: slot-level recycling disagrees with "
                    f"aggregate counts for {user}")
        key_candidates = routes.conservation["key_candidate"]
        if n_sifted != key_candidates:
            raise SessionFailure(
                f"window {index}: sifted slot count {n_sifted} "
                f"disagrees with accounting ({key_candidates})")
        return routes


class CharlieNode:
    """The measurement node: message checks, bookkeeping and announcements."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.physics = WindowPhysics(config)
        self.trackers = {user: ReferenceTracker(
            smoothing=config.reference_smoothing) for user in USERS}
        self.tallies = {"Z": TallySet(), "X": TallySet()}
        # user -> (retardance key, read-only squeezer unitary)
        self._squeezers: dict = {}
        self.traces: list = []
        # The last window's trace fields, awaiting the users' trigger flags.
        self._last_trace: dict | None = None
        self._pending_states: dict = {}
        self._next_window = 0
        self.finished = False
        self.report: SessionReport | None = None

    # -- protocol surface --------------------------------------------------

    def handle(self, message) -> list:
        """React to one message from a user; returns (dest, message) pairs."""
        if not isinstance(message, CompensatorState):
            raise SessionFailure(
                f"measurement node cannot handle {type(message).__name__}")
        if message.window != self._next_window:
            raise SessionFailure(
                f"{message.user} sent compensator state for window "
                f"{message.window}, expected {self._next_window}")
        if message.user in self._pending_states:
            raise SessionFailure(
                f"duplicate compensator state from {message.user} for "
                f"window {message.window}")
        self._squeezer(message)
        self._pending_states[message.user] = message
        if set(self._pending_states) != set(USERS):
            return []
        states = self._pending_states
        self._pending_states = {}
        if self._last_trace is not None:
            # A window-w state carries the user's reaction to window w - 1.
            self.traces.append(WindowTrace(
                triggered={user: states[user].triggered for user in USERS},
                **self._last_trace))
        if self._next_window >= len(self.physics.windows):
            self._finish(states)
            return [(user, SessionEnd(reason="schedule complete"))
                    for user in USERS]
        out = self._run_window(self._next_window, states)
        self._next_window += 1
        return out

    def _squeezer(self, state: CompensatorState) -> np.ndarray:
        """The user's squeezer unitary, after checking its retardances.

        The unitary is rebuilt only when the key, the retardances'
        bytes, changes: -0.0 and 0.0 are equal numbers whose unitaries
        can differ in the sign of a zero.
        """
        _check_retardances(state)
        key = _RETARDANCE_KEY.pack(*state.retardances)
        cached = self._squeezers.get(state.user)
        if cached is None or cached[0] != key:
            unitary = squeezer_unitary(state.retardances)
            unitary.flags.writeable = False
            self._squeezers[state.user] = cached = (key, unitary)
        return cached[1]

    def _run_window(self, index: int, states: dict) -> list:
        t_start, dt, meas_basis = self.physics.windows[index]
        n_slots = self.config.slots_in(dt)
        # handle() checked each state and left its unitary in the cache.
        routes, true_theta = self.physics.run(
            index, {user: self._squeezers[user][1] for user in USERS})
        self.tallies[meas_basis].add(routes.tallies)
        counts = routes.conservation
        total = sum(counts.values())
        if total != n_slots:
            raise SessionFailure(
                f"window {index} accounting violation: conservation classes "
                f"sum to {total}, expected {n_slots}")

        singles = dict(zip(USERS, (routes.singles_a, routes.singles_b)))
        est_theta = {}
        estimator_counts = {}
        out = []
        for user in USERS:
            # The measured basis' states against their reference totals,
            # pooled in label order.
            update = self.trackers[user].update
            pooled = pool_counts([
                (n_wrong, update((meas_basis, label), n_total))
                for label, (n_wrong, n_total)
                in sorted(singles[user].items())])
            theta = pooled_angle(*pooled)
            est_theta[user] = theta
            estimator_counts[user] = pooled
            out.append((user, MisalignmentAnnouncement(
                user=user, window=index,
                theta_z=theta if meas_basis == "Z" else None,
                theta_x=theta if meas_basis == "X" else None)))

        self._last_trace = dict(
            index=index, t_start=t_start, duration=dt, meas_basis=meas_basis,
            n_slots=n_slots, est_theta=est_theta, true_theta=true_theta,
            estimator_counts=estimator_counts, counts=counts)
        return out

    # -- completion ----------------------------------------------------------

    def _finish(self, final_states: dict) -> None:
        bounds, rates = analyze_tallies(self.config, self.tallies)
        self.report = SessionReport(
            duration_s=self.config.duration_s, seed=self.config.seed,
            mode=self.config.mode, sampling=self.config.sampling,
            windows=self.traces, tallies=self.tallies,
            sifted=summarize_sifted(self.tallies), bounds=bounds,
            rates=rates,
            # USERS' own keys on both transports, for byte-equal pickles.
            final_retardances={user: tuple(final_states[user].retardances)
                               for user in USERS})
        self.finished = True


# ---------------------------------------------------------------------------
# The serve loop and the in-process transport
# ---------------------------------------------------------------------------

def _serve(charlie: CharlieNode, links: dict) -> SessionReport:
    """Serve windows over `links` until the measurement node finishes.

    One message is read per user in fixed user order (alice, then bob),
    which makes message processing deterministic, and must name that
    user.  Each destination gets its replies to one message in one list.
    """
    while not charlie.finished:
        for name in USERS:
            message = links[name].read_message()
            if getattr(message, "user", name) != name:
                raise SessionFailure(
                    f"user {name} sent a {type(message).__name__} that "
                    f"names user {message.user!r}")
            replies: dict = {}
            for dest, reply in charlie.handle(message):
                replies.setdefault(dest, []).append(reply)
            for dest, messages in replies.items():
                links[dest].send(messages)
    assert charlie.report is not None
    return charlie.report


class _LocalUser:
    """A user node in this process, handed message objects directly."""

    def __init__(self, name: str, config: SessionConfig):
        self.node = UserNode(name, config)
        self.inbox: list = [self.node.initial_message()]

    def read_message(self):
        if not self.inbox:
            raise SessionFailure(f"user {self.node.name} has nothing to send")
        return self.inbox.pop(0)

    def send(self, messages: list) -> None:
        for message in messages:
            self.inbox.extend(self.node.handle(message))


def run_in_process(config: SessionConfig) -> SessionReport:
    """Drive all three nodes in one process over the serve loop."""
    return _serve(CharlieNode(config),
                  {name: _LocalUser(name, config) for name in USERS})


# ---------------------------------------------------------------------------
# Networked transport
# ---------------------------------------------------------------------------
#
# Every frame is a small request or reply, so both ends set TCP_NODELAY:
# with Nagle's algorithm on, each small write after the first waits for
# the peer's delayed ACK (RFC 896, RFC 1122 4.2.3.2).  Each user connects
# to its own listening port, so a link is named when it is accepted.
# Until its user connects, the parent waits on the port together with
# every child's sentinel, so a user process that ends is noticed at once
# and named.  After that the user's own link reads EOF when it ends;
# SOCKET_TIMEOUT_S only bounds a peer that is alive but silent.

def _user_process_main(name: str, config: SessionConfig, port: int,
                       errors) -> None:
    """Child entry point: run one user, reporting any exception to the parent."""
    try:
        _serve_user(name, config, port)
    except Exception:
        errors.send_bytes(traceback.format_exc().encode("utf-8"))
        sys.exit(1)


def _serve_user(name: str, config: SessionConfig, port: int) -> None:
    node = UserNode(name, config)
    decoder = FrameDecoder()
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=SOCKET_TIMEOUT_S) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.sendall(encode_message(node.initial_message()))
        while not node.finished:
            data = conn.recv(65536)
            if not data:
                raise SessionFailure(f"{name}: connection closed mid-session")
            replies = [encode_message(reply)
                       for message in decoder.feed(data)
                       for reply in node.handle(message)]
            if replies:
                conn.sendall(b"".join(replies))


class _UserProcess:
    """One user's child process and the pipe it reports its exception on."""

    def __init__(self, ctx, name: str, config: SessionConfig, port: int):
        self.name = name
        self.errors, child_end = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(target=_user_process_main,
                                args=(name, config, port, child_end),
                                daemon=True)
        self.proc.start()
        child_end.close()

    def failure(self) -> SessionFailure:
        """The error for this user dropping out of the session."""
        # Read before joining: a report larger than the pipe buffer keeps
        # the child alive until it is read.  The pipe turns readable with
        # the report, or at EOF once the child is gone.
        detail = "no exception reported"
        if self.errors.poll(SOCKET_TIMEOUT_S):
            try:
                detail = self.errors.recv_bytes().decode("utf-8", "replace")
            except EOFError:
                pass
        self.proc.join(SOCKET_TIMEOUT_S)
        if self.proc.exitcode is None:
            return SessionFailure(f"user {self.name} closed its connection "
                                  "but its process is still running")
        return SessionFailure(f"user {self.name} process exited with code "
                              f"{self.proc.exitcode}: {detail.rstrip()}")

    def stop(self, failed: bool) -> None:
        # After a failure a child may still sit unaccepted in the listen
        # backlog, which the forked children keep open, so it would never
        # see EOF: stop it instead of waiting.
        if not failed:
            self.proc.join(timeout=30.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.errors.close()


def _await_connection(server: socket.socket, users: dict, name: str) -> None:
    """Block until user `name` connects to `server`; a user process that
    ends first raises its failure at once."""
    by_sentinel = {user.proc.sentinel: user for user in users.values()}
    ready = multiprocessing.connection.wait([server, *by_sentinel],
                                            SOCKET_TIMEOUT_S)
    for handle in ready:
        if handle in by_sentinel:
            raise by_sentinel[handle].failure()
    if not ready:
        raise SessionFailure(f"user {name} did not connect within "
                             f"{SOCKET_TIMEOUT_S:g} s")


class _UserConnection:
    """Server-side view of one connected user."""

    def __init__(self, conn: socket.socket, user: _UserProcess):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(SOCKET_TIMEOUT_S)
        self.conn = conn
        self.user = user
        self.decoder = FrameDecoder()
        self.inbox: list = []

    def read_message(self):
        """Wait until one decoded message is available, then return it."""
        while not self.inbox:
            try:
                data = self.conn.recv(65536)
            except TimeoutError as exc:
                raise SessionFailure(
                    f"user {self.user.name} sent nothing within "
                    f"{SOCKET_TIMEOUT_S:g} s") from exc
            except OSError as exc:
                raise self.user.failure() from exc
            if not data:
                raise self.user.failure()
            try:
                self.inbox.extend(self.decoder.feed(data))
            except WireError as exc:
                raise SessionFailure(f"user {self.user.name} sent a "
                                     f"malformed frame: {exc}") from exc
        return self.inbox.pop(0)

    def send(self, messages: list) -> None:
        try:
            data = b"".join(map(encode_message, messages))
        except WireError as exc:
            raise SessionFailure(f"cannot send to user {self.user.name}: "
                                 f"{exc}") from exc
        try:
            self.conn.sendall(data)
        except OSError as exc:
            raise self.user.failure() from exc


def run_networked(config: SessionConfig) -> SessionReport:
    """Users in child processes, measurement node in this one, over TCP."""
    charlie = CharlieNode(config)
    # fork keeps the child free of any __main__ re-import requirement;
    # the children only run socket I/O plus small-array bookkeeping.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    servers: dict = {}
    users: dict = {}
    links: dict = {}
    failed = True
    try:
        # Every user process starts before any connection is accepted, so
        # no child inherits the parent's end of a link: each link's ends
        # live only in the parent and in its own user's process, and
        # either side reads EOF as soon as the other ends.
        for name in USERS:
            servers[name] = socket.create_server(("127.0.0.1", 0))
            users[name] = _UserProcess(ctx, name, config,
                                       servers[name].getsockname()[1])
        for name in USERS:
            _await_connection(servers[name], users, name)
            conn, _addr = servers[name].accept()
            links[name] = _UserConnection(conn, users[name])
        report = _serve(charlie, links)
        failed = False
    finally:
        for link in links.values():
            link.conn.close()
        for server in servers.values():
            server.close()
        for user in users.values():
            user.stop(failed)
    return report
