"""simulate under failure: a sink or a write that raises on either channel,
a path it cannot write and an interrupt all re-raise, leave no file of the
pair being written, and end both threads without a hang."""

import json
import threading
import time
from pathlib import Path

import pytest

import tracefiles
from sqzkit import cli, synth, traceio

#: Long enough for several blocks a channel, so one channel can fail while
#: the other waits on one of the two slots or runs ahead of it.
DURATION = "6e-4"
N_SAMPLES = 300_000


def _simulate_args(out_dir, fmt="f32"):
    return ["simulate", "--scenario", "deployed", "--duration", DURATION,
            "--trace-format", fmt, "--out-dir", str(out_dir)]


def _within(seconds, run):
    """``run()`` on a helper thread, which must end within `seconds`: a hang
    fails the test instead of stopping the run.  Returns what `run` raised."""
    outcome = []

    def target():
        try:
            run()
        except BaseException as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), "the run did not end"
    return outcome[0]


def _on(channel):
    """Whether the calling thread runs `channel`: channel k runs on the k-th
    thread that `run_both` starts."""
    return threading.current_thread().name == f"sqzkit-run-both-{channel}"


class Boom(Exception):
    pass


def _failing(channel, after, exc_type):
    """A replacement for `traceio._f32_chunks` that raises `exc_type` on
    `channel` when it is handed its block number `after`."""
    calls = []
    chunks = traceio._f32_chunks

    def f32_chunks(volts):
        if _on(channel):
            calls.append(volts.size)
            if len(calls) > after:
                raise exc_type(f"channel {channel} failed after {after} blocks")
        return chunks(volts)

    return f32_chunks


@pytest.mark.parametrize("after", [0, 3])
@pytest.mark.parametrize("channel", [1, 2])
@pytest.mark.parametrize("exc_type", [Boom, KeyboardInterrupt], ids=["error", "interrupt"])
def test_a_failing_write_leaves_no_file_and_no_thread(tmp_path, monkeypatch, channel, after, exc_type):
    monkeypatch.setattr(traceio, "_f32_chunks", _failing(channel, after, exc_type))
    threads = threading.active_count()
    raised = _within(60, lambda: cli.main(_simulate_args(tmp_path)))
    assert isinstance(raised, exc_type), raised
    assert list(tmp_path.iterdir()) == []  # no temp file, no trace, no sidecar
    assert threading.active_count() == threads


def test_a_failing_shot_noise_pair_keeps_the_signal_pair(tmp_path, monkeypatch):
    # the signal pair is done before the shot-noise pair starts
    calls = []

    def fail_on_shot_noise(config, sink1, sink2):
        calls.append(config)
        raise Boom("no shot noise")

    monkeypatch.setattr(synth, "stream_shot_noise", fail_on_shot_noise)
    with pytest.raises(Boom):
        cli.main(_simulate_args(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["signal_C43.f32", "signal_C43.f32.json", "signal_C45.f32", "signal_C45.f32.json"]
    assert len(calls) == 1


def test_an_unwritable_second_path_leaves_no_file_of_the_pair(tmp_path, capsys):
    (tmp_path / "signal_C45.f32").mkdir()  # the pair's second file cannot replace a directory
    threads = threading.active_count()
    raised = _within(60, lambda: cli.main(_simulate_args(tmp_path)))
    assert isinstance(raised, OSError), raised
    assert [p.name for p in tmp_path.iterdir()] == ["signal_C45.f32"]
    assert list((tmp_path / "signal_C45.f32").iterdir()) == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("block", [0, 3])
@pytest.mark.parametrize("channel", [1, 2])
def test_a_failing_sink_stops_both_channels(channel, block):
    # the failing sink sleeps first, so its partner is parked on a semaphore
    # when it raises: channel 1 on two full slots, or channel 2 waiting for
    # the next block; either must wake and stop
    config = cli.scenario_synth_config(cli.load_scenario("deployed"), duration=float(DURATION))
    seen, calls = {1: 0, 2: 0}, {1: 0, 2: 0}

    def sink_for(k):
        def sink(volts):
            seen[k] += volts.size
            calls[k] += 1
            if k == channel and calls[k] > block:
                time.sleep(0.2)
                raise Boom(k)
        return sink

    threads = threading.active_count()
    raised = _within(60, lambda: synth.stream_pair(config, sink_for(1), sink_for(2)))
    assert isinstance(raised, Boom) and raised.args == (channel,)
    assert calls[channel] == block + 1
    assert 0 < seen[channel] < N_SAMPLES
    assert seen[3 - channel] < N_SAMPLES  # the other channel stopped early too
    assert threading.active_count() == threads


def test_a_streamed_pair_writes_what_the_arrays_hold(tmp_path, capsys):
    assert cli.main(_simulate_args(tmp_path)) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    config = cli.scenario_synth_config(cli.load_scenario("deployed"), duration=float(DURATION))
    for (stem, path), trace in zip(
        files.items(), synth.synthesize_pair(config) + synth.synthesize_shot_noise(config)
    ):
        volts, rate = tracefiles.read(path)
        assert (volts == trace.samples.astype("<f4")).all(), stem
        sidecar = json.loads(Path(path + ".json").read_text())
        assert sidecar["meta"] == json.loads(json.dumps(trace.meta))
        assert sidecar["n_samples"] == N_SAMPLES
