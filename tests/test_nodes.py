"""Protocol nodes and transports: wire traffic, checks and failures.

The networked failures are injected with monkeypatch; the fork start
method carries the patches into the user processes.  Every injected
failure must surface as a SessionError that names its cause, in well
under the transport's last-resort socket timeout.
"""

import dataclasses
import math
import multiprocessing
import os
import signal
import socket
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mdiqkd_polcomp import nodes
from mdiqkd_polcomp.cli import EXIT_SESSION, main
from mdiqkd_polcomp.config import load_profile
from mdiqkd_polcomp.polarization import (DriftProcess, misalignment_angles,
                                         random_misalignment,
                                         squeezer_unitary)
from mdiqkd_polcomp.session import (USERS, SessionConfig, SessionError,
                                    SessionFailure, run_session)
from mdiqkd_polcomp.wire import (MESSAGE_TYPES, CompensatorState,
                                 FrameDecoder, MisalignmentAnnouncement,
                                 SessionEnd, encode_message)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure injection reaches the user processes only under fork")

FAIL_FAST_S = 2.0


def networked_config(**overrides) -> SessionConfig:
    # 60 s at the 15 s basis period: windows 0 to 3.
    defaults = dict(duration_s=60.0, rep_rate_hz=1e5, seed=7,
                    initial_misalignment_a=0.1,
                    initial_misalignment_b=0.1, mode="networked")
    defaults.update(overrides)
    return SessionConfig(**defaults)


def session_error(config: SessionConfig) -> tuple:
    """Run a session that must fail; return its message and wall time."""
    start = time.perf_counter()
    with pytest.raises(SessionError) as info:
        run_session(config)
    return str(info.value), time.perf_counter() - start


@pytest.mark.parametrize("user", USERS)
def test_user_dying_before_connecting_is_named(monkeypatch, user):
    init = nodes.UserNode.__init__

    def failing_init(self, name, config):
        if name == user:
            raise RuntimeError(f"injected: {user} cannot start")
        init(self, name, config)

    monkeypatch.setattr(nodes.UserNode, "__init__", failing_init)
    message, wall = session_error(networked_config())
    assert f"user {user} process exited with code 1" in message
    assert f"RuntimeError: injected: {user} cannot start" in message
    assert wall < FAIL_FAST_S


@pytest.mark.parametrize("user", USERS)
def test_user_dying_between_connecting_and_its_opening_is_named(monkeypatch,
                                                                user):
    initial_message = nodes.UserNode.initial_message

    # A user process builds its opening once it is connected.
    def failing_opening(self):
        if self.name == user:
            raise RuntimeError(f"injected: {user} ends before its opening")
        return initial_message(self)

    monkeypatch.setattr(nodes.UserNode, "initial_message", failing_opening)
    message, wall = session_error(networked_config())
    assert f"user {user} process exited with code 1" in message
    assert f"RuntimeError: injected: {user} ends before its opening" in message
    assert wall < FAIL_FAST_S


def test_user_killed_mid_session_is_named(monkeypatch):
    handle = nodes.UserNode.handle

    def dying_handle(self, message):
        if (self.name == "alice" and isinstance(message, MisalignmentAnnouncement)
                and message.window == 2):
            os.kill(os.getpid(), signal.SIGKILL)
        return handle(self, message)

    monkeypatch.setattr(nodes.UserNode, "handle", dying_handle)
    message, wall = session_error(networked_config())
    assert message.startswith("user alice process exited with code -9")
    assert wall < FAIL_FAST_S


def test_user_raising_mid_session_is_named(monkeypatch):
    handle = nodes.UserNode.handle

    def failing_handle(self, message):
        if (self.name == "alice" and isinstance(message, MisalignmentAnnouncement)
                and message.window == 3):
            raise ValueError("injected: alice fails at window 3")
        return handle(self, message)

    monkeypatch.setattr(nodes.UserNode, "handle", failing_handle)
    message, wall = session_error(networked_config())
    assert "user alice process exited with code 1" in message
    assert "ValueError: injected: alice fails at window 3" in message
    # The child's traceback travels with the error.
    assert "Traceback (most recent call last)" in message
    assert wall < FAIL_FAST_S


def test_user_sending_a_garbage_frame_is_named(monkeypatch):
    def garbling_encode(message):
        if isinstance(message, CompensatorState) and message.window == 3:
            return b"\x00\x00\x00\x05{oops"
        return encode_message(message)

    # Only users encode compensator states, so the parent's frames are
    # unchanged.
    monkeypatch.setattr(nodes, "encode_message", garbling_encode)
    message, wall = session_error(networked_config())
    assert message.startswith("user alice sent a malformed frame")
    assert wall < FAIL_FAST_S


def test_user_sending_an_integer_too_long_to_convert_is_named(monkeypatch):
    # json raises a bare ValueError for it, not a JSONDecodeError.
    body = ('{"retardances":[' + "9" * 5000 + ',0.0,0.0,0.0],"triggered":'
            'false,"type":"compensator_state","user":"alice","v":1,'
            '"window":3}').encode()

    def overlong_encode(message):
        if isinstance(message, CompensatorState) and message.window == 3:
            return len(body).to_bytes(4, "big") + body
        return encode_message(message)

    monkeypatch.setattr(nodes, "encode_message", overlong_encode)
    message, wall = session_error(networked_config())
    assert message.startswith("user alice sent a malformed frame: malformed "
                              "frame body: Exceeds the limit")
    assert wall < FAIL_FAST_S


def test_measurement_node_failure_is_not_held_up_by_the_users(monkeypatch):
    run_window = nodes.CharlieNode._run_window

    def failing_window(self, index, states):
        if index == 3:
            raise SessionError("injected: measurement node fails at window 3")
        return run_window(self, index, states)

    monkeypatch.setattr(nodes.CharlieNode, "_run_window", failing_window)
    message, wall = session_error(networked_config())
    assert message == "injected: measurement node fails at window 3"
    assert wall < FAIL_FAST_S


def test_measurement_node_reply_that_is_not_json_is_named(monkeypatch):
    run_window = nodes.CharlieNode._run_window

    def nan_window(self, index, states):
        replies = run_window(self, index, states)
        if index == 2:
            replies = [(user, dataclasses.replace(reply, theta_z=math.nan))
                       for user, reply in replies]
        return replies

    monkeypatch.setattr(nodes.CharlieNode, "_run_window", nan_window)
    message, wall = session_error(networked_config())
    assert message.startswith("cannot send to user alice: cannot encode "
                              "misalignment: Out of range float")
    assert wall < FAIL_FAST_S


def test_cli_reports_a_dead_user_as_an_exit_code(monkeypatch, tmp_path,
                                                 capsys):
    def failing_init(self, name, config):
        raise RuntimeError(f"injected: {name} cannot start")

    monkeypatch.setattr(nodes.UserNode, "__init__", failing_init)
    ini = tmp_path / "small.ini"
    ini.write_text("[session]\nduration_s = 60\nrep_rate_hz = 100000\n",
                   encoding="utf-8")
    assert main(["simulate", "--config", str(ini), "--mode", "networked",
                 "--out", str(tmp_path / "run")]) == EXIT_SESSION
    err = capsys.readouterr().err
    assert "process exited with code 1" in err
    assert "RuntimeError: injected:" in err


def test_cli_reports_an_in_process_accounting_fault_as_an_exit_code(
        monkeypatch, tmp_path, capsys):
    # The slot-level recycling count can never match the aggregate one.
    def miscounting_recycle(slots, outcomes, reveals_a, reveals_b,
                            bit_reveals_a, bit_reveals_b, meas_basis):
        return {"alice": {"H": (0, 10 ** 12)}, "bob": {}}

    monkeypatch.setattr(nodes, "recycle_singles", miscounting_recycle)
    ini = tmp_path / "per_slot.ini"
    ini.write_text("[session]\nduration_s = 15\nrep_rate_hz = 10000\n",
                   encoding="utf-8")
    assert main(["simulate", "--config", str(ini), "--sampling", "per-slot",
                 "--out", str(tmp_path / "run")]) == EXIT_SESSION
    assert "slot-level recycling disagrees" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["in-process", "networked"])
@pytest.mark.parametrize("retardances, shown", [
    ((7.0, 0.0, 0.0, 0.0), "holds retardance 7.0, outside"),
    ((0.1, 0.2, 0.3), "holds (0.1, 0.2, 0.3), expected 4 retardances"),
    ((0.0, math.nan, 0.0, 0.0), "holds retardance nan, outside"),
], ids=["out-of-range", "three", "nan"])
def test_cli_reports_bad_retardances_as_an_exit_code(
        monkeypatch, tmp_path, capsys, mode, retardances, shown):
    compensator_state = nodes.UserNode._compensator_state

    def bad_state(self, window, triggered):
        state = compensator_state(self, window, triggered)
        if self.name == "bob" and window == 2:
            state = CompensatorState(user="bob", window=window,
                                     retardances=retardances)
        return state

    monkeypatch.setattr(nodes.UserNode, "_compensator_state", bad_state)
    ini = tmp_path / "small.ini"
    ini.write_text("[session]\nduration_s = 60\nrep_rate_hz = 100000\n",
                   encoding="utf-8")
    assert main(["simulate", "--config", str(ini), "--mode", mode,
                 "--out", str(tmp_path / "run")]) == EXIT_SESSION
    err = capsys.readouterr().err
    if mode == "networked" and math.isnan(sum(retardances)):
        # Not JSON: bob's encoder refuses it before it reaches the wire.
        assert "Out of range float" in err
    else:
        assert shown in err
        assert "bob's compensator state for window 2" in err


@pytest.mark.parametrize("mode", ["in-process", "networked"])
def test_a_state_naming_another_user_is_refused_at_once(monkeypatch, mode):
    compensator_state = nodes.UserNode._compensator_state

    def impostor_state(self, window, triggered):
        state = compensator_state(self, window, triggered)
        if self.name == "alice" and window == 2:
            state = dataclasses.replace(state, user="mallory")
        return state

    monkeypatch.setattr(nodes.UserNode, "_compensator_state", impostor_state)
    message, wall = session_error(networked_config(mode=mode))
    assert message == ("user alice sent a CompensatorState that names "
                       "user 'mallory'")
    assert wall < FAIL_FAST_S


def test_both_ends_of_a_live_session_disable_nagle(monkeypatch, tmp_path):
    sendall = socket.socket.sendall

    def recording_sendall(self, data, *args):
        flag = self.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        with open(tmp_path / f"{os.getpid()}.txt", "a",
                  encoding="utf-8") as out:
            out.write(f"{flag}\n")
        return sendall(self, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
    run_session(networked_config())
    flags = {path.stem: path.read_text(encoding="utf-8").split()
             for path in Path(tmp_path).glob("*.txt")}
    # The measurement node and both user processes wrote.
    assert str(os.getpid()) in flags
    assert len(flags) == 3
    for values in flags.values():
        assert values and all(int(value) != 0 for value in values)


def link_traffic(config: SessionConfig) -> list:
    """Run an in-process session; return every message the serve loop
    takes from a user's link or hands to one, in order."""
    traffic = []
    read_message, send = nodes._LocalUser.read_message, nodes._LocalUser.send

    def recording_read(self):
        message = read_message(self)
        traffic.append(message)
        return message

    def recording_send(self, messages):
        traffic.extend(messages)
        send(self, messages)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nodes._LocalUser, "read_message", recording_read)
        patch.setattr(nodes._LocalUser, "send", recording_send)
        run_session(config)
    return traffic


def test_in_process_wire_traffic_is_one_state_and_one_announcement_per_user():
    config = networked_config(mode="in-process")
    n_windows = len(config.windows())
    sent = link_traffic(config)
    assert n_windows == 4
    assert Counter(type(message) for message in sent) == {
        CompensatorState: 2 + 2 * n_windows,
        MisalignmentAnnouncement: 2 * n_windows,
        SessionEnd: 2}
    # The openings, then per window one announcement to each user and
    # each user's state for the next window.
    for window in range(n_windows + 1):
        assert sorted(m.user for m in sent if isinstance(m, CompensatorState)
                      and m.window == window) == sorted(USERS)
    for window in range(n_windows):
        assert sorted(m.user for m in sent
                      if isinstance(m, MisalignmentAnnouncement)
                      and m.window == window) == sorted(USERS)


def test_every_message_handed_over_survives_a_frame_and_is_immutable():
    # The in-process transport passes message objects; the networked one
    # frames them.  Both must carry the same values.
    config = dataclasses.replace(load_profile("reference-defaults"),
                                 duration_s=60.0)
    traffic = link_traffic(config)
    assert {type(message) for message in traffic} \
        == set(MESSAGE_TYPES.values())
    for message in traffic:
        assert FrameDecoder().feed(encode_message(message)) == [message]
        for field in dataclasses.fields(message):
            value = getattr(message, field.name)
            assert type(value) in (str, int, float, bool, type(None)) or (
                type(value) is tuple
                and all(type(item) is float for item in value)), \
                (message, field.name)


def test_in_process_user_with_nothing_to_send_is_named(monkeypatch):
    handle = nodes.UserNode.handle

    def silent_handle(self, message):
        replies = handle(self, message)
        if self.name == "bob" and getattr(message, "window", None) == 2:
            return []
        return replies

    monkeypatch.setattr(nodes.UserNode, "handle", silent_handle)
    message, _ = session_error(networked_config(mode="in-process"))
    assert message == "user bob has nothing to send"


@pytest.mark.parametrize("mode", ["in-process", "networked"])
def test_every_window_trace_carries_its_trigger_flags(monkeypatch, mode):
    # A user evaluates its feedback once both basis angles are fresh, so
    # with a controller that always steps, every X window (odd index)
    # triggers and no Z window does.  The last window is an X window, and
    # its flags arrive only with the users' closing states.
    monkeypatch.setattr(nodes, "control_step",
                        lambda state, estimate, config, bank: object())
    report = run_session(networked_config(mode=mode))
    assert [trace.index for trace in report.windows] == [0, 1, 2, 3]
    for trace in report.windows:
        fired = trace.meas_basis == "X"
        assert trace.triggered == {user: fired for user in USERS}
    assert all(report.windows[-1].triggered.values())


def test_user_node_refuses_a_compensator_state():
    user = nodes.UserNode("alice", networked_config(mode="in-process"))
    state = CompensatorState(user="bob", window=0,
                             retardances=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(SessionFailure, match="alice cannot handle message "
                                             "type CompensatorState"):
        user.handle(state)


def test_a_session_sends_every_message_type_and_no_other():
    sent = Counter(type(message) for message in
                   link_traffic(networked_config(mode="in-process")))
    # Windows 0 to 3: a state per user per window plus each closing
    # state, an announcement per user per window, one end per user.
    assert sent == {CompensatorState: 10, MisalignmentAnnouncement: 8,
                    SessionEnd: 2}
    assert set(sent) == set(MESSAGE_TYPES.values())


@pytest.mark.parametrize("value", [True, False])
def test_measurement_node_refuses_boolean_retardances(value):
    charlie = nodes.CharlieNode(networked_config(mode="in-process"))
    state = CompensatorState(user="bob", window=0,
                             retardances=(0.0, value, 0.0, 0.0))
    # A JSON true or false decodes as a bool, not as 1 or 0.
    [decoded] = FrameDecoder().feed(encode_message(state))
    assert decoded.retardances[1] is value
    with pytest.raises(SessionFailure,
                       match=f"window 0 holds retardance {value}, outside"):
        charlie.handle(decoded)


def _replayed_drift(config: SessionConfig) -> dict:
    """Each user's drift walk, replayed from its own seed streams."""
    return {user: DriftProcess(rate, seed=[config.seed, drift_tag],
                               initial=random_misalignment(
                                   initial, seed=[config.seed, init_tag]))
            for user, rate, initial, drift_tag, init_tag in (
                ("alice", config.drift_rate_a, config.initial_misalignment_a,
                 nodes._STREAM_DRIFT_A, nodes._STREAM_INIT_A),
                ("bob", config.drift_rate_b, config.initial_misalignment_b,
                 nodes._STREAM_DRIFT_B, nodes._STREAM_INIT_B))}


def test_squeezer_unitary_is_rebuilt_only_when_retardances_change():
    config = SessionConfig(duration_s=90.0, rep_rate_hz=1e4, seed=31,
                           initial_misalignment_a=0.1,
                           initial_misalignment_b=0.05)
    same, changed = (0.1, -0.2, 0.3, 0.0), (0.1, -0.2, 0.35, 0.0)
    # Alice holds, changes, holds, reverts and holds; Bob always holds.
    # A final window-6 state closes the session.
    retardances = {"alice": [same, same, changed, changed, same, same, same],
                   "bob": [changed] * 7}
    built = []

    def counting_unitary(values):
        built.append(tuple(values))
        return squeezer_unitary(values)

    charlie = nodes.CharlieNode(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nodes, "squeezer_unitary", counting_unitary)
        for window in range(len(charlie.physics.windows) + 1):
            for user in USERS:
                charlie.handle(CompensatorState(
                    user=user, window=window,
                    retardances=retardances[user][window]))
    assert charlie.finished and len(charlie.physics.windows) == 6
    assert built == [same, changed, changed, same]
    for _, unitary in charlie._squeezers.values():
        assert not unitary.flags.writeable

    for user, drift in _replayed_drift(config).items():
        for trace in charlie.report.windows:
            expected = misalignment_angles(
                drift.step(trace.duration)
                @ squeezer_unitary(retardances[user][trace.index]))
            assert trace.true_theta[user] == expected


def test_squeezer_cache_tells_negative_zero_from_zero():
    charlie = nodes.CharlieNode(SessionConfig(duration_s=30.0,
                                              rep_rate_hz=1e4))
    zero, negative_zero = (0.0, 0.0, -1.2, 0.0), (0.0, 0.0, -1.2, -0.0)
    # Equal as numbers, but the unitaries differ in the sign of a zero.
    assert zero == negative_zero
    assert squeezer_unitary(zero).tobytes() \
        != squeezer_unitary(negative_zero).tobytes()
    for values in (zero, negative_zero, zero):
        unitary = charlie._squeezer(CompensatorState(
            user="alice", window=0, retardances=values))
        assert unitary.tobytes() == squeezer_unitary(values).tobytes()


class _TwitchyUser(nodes.UserNode):
    """A user that turns its first squeezer after every Z window, which a
    real controller never does: only an X window completes an estimate."""

    def handle(self, message):
        if (isinstance(message, MisalignmentAnnouncement)
                and message.theta_z is not None):
            self.bank.retardances[0] += 0.25
        return super().handle(message)


def _spy_kernel(monkeypatch) -> tuple:
    """Record every window's sampled class probabilities and each kernel
    call's window count, in two lists that are returned."""
    sampled, depths = [], []
    sample = nodes.engine.sample_window_counts
    grid = nodes.engine.class_probability_grid

    def spying_sample(n_slots, classes, class_probs, rng):
        sampled.append(class_probs.copy())
        return sample(n_slots, classes, class_probs, rng)

    def measuring_grid(*args):
        result = grid(*args)
        depths.append(result.shape[0] if result.ndim == 4 else 1)
        return result

    monkeypatch.setattr(nodes.engine, "sample_window_counts", spying_sample)
    monkeypatch.setattr(nodes.engine, "class_probability_grid",
                        measuring_grid)
    return sampled, depths


def _spied_session(monkeypatch, config: SessionConfig, user_node=None):
    """Run a session with `user_node` as the user class; return its
    report, every window's retardances per user, every window's sampled
    class probabilities and each kernel call's window count."""
    retardances = {user: [] for user in USERS}
    run_window = nodes.CharlieNode._run_window

    def recording_window(self, index, states):
        for user in USERS:
            retardances[user].append(states[user].retardances)
        return run_window(self, index, states)

    monkeypatch.setattr(nodes.CharlieNode, "_run_window", recording_window)
    sampled, depths = _spy_kernel(monkeypatch)
    if user_node is not None:
        monkeypatch.setattr(nodes, "UserNode", user_node)
    return run_session(config), retardances, sampled, depths


def _assert_windows_match_replay(config, traces, retardances, sampled):
    """Every sampled window's class probabilities and true angles equal
    the single-window kernel's on channels rebuilt from a replayed drift
    walk and each window's retardances."""
    assert len(sampled) == len(traces)
    classes = nodes.engine.DecisionClasses.build(config.table)
    drift = _replayed_drift(config)
    for trace, probs in zip(traces, sampled):
        channels = {user: drift[user].step(trace.duration) @ squeezer_unitary(
            retardances[user][trace.index]) for user in USERS}
        expected = nodes.engine.window_class_probabilities(
            classes, channels["alice"], channels["bob"],
            trace.meas_basis, config.detector)
        assert probs.tobytes() == expected.tobytes()
        assert trace.true_theta == {user: misalignment_angles(channels[user])
                                    for user in USERS}


def test_window_physics_runs_without_a_node(monkeypatch):
    # Fixed squeezers, each window as new arrays: a stack is keyed on
    # the unitaries' bytes, so it doubles to the cap, and the session's
    # end cuts the last one short.
    config = SessionConfig(duration_s=15.0 * 20, rep_rate_hz=1e5, seed=80,
                           initial_misalignment_a=0.1,
                           initial_misalignment_b=0.05)
    held = {"alice": (0.1, -0.2, 0.3, 0.0), "bob": (0.0, 0.0, -1.2, -0.0)}
    sampled, depths = _spy_kernel(monkeypatch)
    physics = nodes.WindowPhysics(config)
    traces = []
    for index, (_, dt, basis) in enumerate(physics.windows):
        routes, true_theta = physics.run(
            index, {user: squeezer_unitary(held[user]) for user in USERS})
        assert sum(routes.conservation.values()) == config.slots_in(dt)
        traces.append(SimpleNamespace(index=index, duration=dt,
                                      meas_basis=basis, true_theta=true_theta))
    assert depths == [2, 4, 8, 6]
    _assert_windows_match_replay(
        config, traces, {user: [values] * len(traces)
                         for user, values in held.items()}, sampled)


@pytest.mark.parametrize("duration_s, overrides, twitchy, kernel_calls", [
    # Every window misses its stack: each X window arrives with the
    # twitch, and here each Z window with a controller step.  Each new
    # stack holds a Z/X pair; the last window has no next one.
    (90.0, {}, True, 6),
    # Windows 0 and 1 share a call; the last window has no next one.
    (45.0, {}, False, 2),
    # Windows 2 and 3 fill a stack of 4 cut short by the session's end.
    (60.0, {"compensation_enabled": False}, False, 2),
    (60.0, {}, False, 2),
])
def test_every_aggregate_window_samples_its_own_channels(
        monkeypatch, duration_s, overrides, twitchy, kernel_calls):
    config = SessionConfig(duration_s=duration_s, rep_rate_hz=1e5, seed=77,
                           initial_misalignment_a=0.1,
                           initial_misalignment_b=0.05, **overrides)
    report, retardances, sampled, depths = _spied_session(
        monkeypatch, config, _TwitchyUser if twitchy else None)

    assert len(depths) == kernel_calls
    assert len(sampled) == len(report.windows)
    if twitchy:
        # The compensators did change between every Z window and the next.
        assert all(retardances["alice"][w] != retardances["alice"][w + 1]
                   for w in range(0, len(report.windows), 2))
    _assert_windows_match_replay(config, report.windows, retardances,
                                 sampled)


class _ErraticUser(nodes.UserNode):
    """A user that turns its squeezers in place at seeded random windows,
    as no controller would: after Z windows, on consecutive windows and
    for the last window, and once from 0.0 to -0.0 and back.  Windows 22
    to 46 hold still, long enough for stacks to reach the cap."""

    N_WINDOWS = 48
    _rng = np.random.default_rng(2309)
    # window -> (squeezer, value) set before that window's state is sent
    TURNS = {int(window): (0, float(value)) for window, value in zip(
        _rng.choice(np.arange(1, 22), size=10, replace=False),
        _rng.uniform(-1.0, 1.0, size=10))}
    TURNS.update({3: (0, 0.4), 4: (0, 0.5), 5: (0, 0.6), 11: (0, -0.3),
                  N_WINDOWS - 1: (0, 0.7), 20: (2, -0.0), 21: (2, 0.0)})

    def handle(self, message):
        if isinstance(message, MisalignmentAnnouncement):
            turn = self.TURNS.get(message.window + 1)
            if turn is not None:
                squeezer, value = turn
                self.bank.retardances[squeezer] = value
        return super().handle(message)


@pytest.mark.parametrize("mode", ["in-process", "networked"])
@pytest.mark.parametrize("compensation", [False, True])
def test_window_stacks_follow_erratic_compensators(monkeypatch, mode,
                                                   compensation):
    config = SessionConfig(duration_s=15.0 * _ErraticUser.N_WINDOWS,
                           rep_rate_hz=1e5, seed=79, mode=mode,
                           initial_misalignment_a=0.1,
                           initial_misalignment_b=0.05,
                           compensation_enabled=compensation)
    report, retardances, sampled, depths = _spied_session(
        monkeypatch, config, _ErraticUser)

    assert len(report.windows) == _ErraticUser.N_WINDOWS
    # Stacks grew past the Z/X pair, never past the cap, and every
    # window was evaluated at least once.
    assert 2 < max(depths) <= nodes.MAX_STACK
    assert sum(depths) >= len(sampled)
    # The sign of a zero reached the node as a change of its own.
    flipped = retardances["alice"][20], retardances["alice"][21]
    assert flipped[0] == flipped[1]
    assert [math.copysign(1.0, values[2]) for values in flipped] == [-1, 1]
    _assert_windows_match_replay(config, report.windows, retardances,
                                 sampled)


@pytest.mark.parametrize("mode, checks", [
    # Every state is checked once, on both transports: per user, four
    # windows plus the closing state.
    ("in-process", 10), ("networked", 10)])
def test_retardances_are_checked_once_per_tuple(monkeypatch, mode, checks):
    checked = []
    check = nodes._check_retardances

    def counting_check(message):
        checked.append(message.window)
        check(message)

    monkeypatch.setattr(nodes, "_check_retardances", counting_check)
    run_session(networked_config(mode=mode, compensation_enabled=False))
    assert len(checked) == checks


def test_a_per_slot_session_never_calls_the_kernel(monkeypatch):
    calls = []
    grid = nodes.engine.class_probability_grid

    def counting_grid(*args):
        calls.append(args)
        return grid(*args)

    monkeypatch.setattr(nodes.engine, "class_probability_grid",
                        counting_grid)
    report = run_session(SessionConfig(duration_s=45.0, rep_rate_hz=1e4,
                                       seed=78, sampling="per-slot"))
    assert len(report.windows) == 3
    assert calls == []
