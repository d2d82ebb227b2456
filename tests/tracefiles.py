"""Whole-trace writes and reads for tests, through `traceio.write_traces`
and `traceio.read_trace_chunks`."""

import numpy as np

from sqzkit import traceio


def write(path, fmt, volts, sample_rate, meta=None):
    """One trace file of `volts` in format `fmt`, and its sidecar."""

    def produce(sinks):
        sinks[0](np.asarray(volts, dtype=np.float64))
        return [meta]

    traceio.write_traces([path], fmt, sample_rate, produce)


def read(path):
    """(volts, sample_rate) of a trace: every chunk it is read in, joined."""
    chunks, _, rate = traceio.read_trace_chunks(path)
    return np.concatenate([np.empty(0), *chunks]), rate
