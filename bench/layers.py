"""Per-layer tracing: what is wrapped, and the metrics computed from the spans.

The layers are the package modules posterior, controller, confidence,
genmodel, llmclient and harness.  ``install`` wraps their public functions
where the callers bind them; ``layer_metrics`` turns the spans of one traced
pass into counts, self times and ratios.  A layer a workload does not use
reads zero.
"""

from __future__ import annotations

import math
import statistics

from spans import SpanRecorder


def key_note(args, kwargs, result):
    """The (question id, round) key of a sampler call."""
    return (args[0], args[1])


def install(recorder: SpanRecorder) -> None:
    """Wrap the public functions at the places their callers look them up."""
    import cges.controller
    import cges.genmodel
    import cges.harness
    import cges.llmclient
    from cges.llmclient import RecordStore
    from cges.posterior import CandidateSet

    recorder.patch(cges.controller, "score", "posterior.score", note=lambda a, k, r: len(a[0]))
    recorder.patch(CandidateSet, "from_samples", "posterior.from_samples", kind="classmethod")
    recorder.patch(cges.harness, "run", "controller.run")
    recorder.patch(cges.controller, "run", "controller.run")
    recorder.patch(cges.harness, "run_method", "harness.run_method")
    recorder.patch(cges.llmclient, "sample_once", "llmclient.sample_once",
                   note=lambda a, k, r: k.get("seed"))
    token_note = lambda a, k, r: len(a[0].token_probs)  # noqa: E731
    recorder.patch(cges.llmclient, "lns_arithmetic", "confidence.lns_arithmetic", note=token_note)
    recorder.patch(cges.llmclient, "lns_geometric", "confidence.lns_geometric", note=token_note)
    recorder.patch(RecordStore, "append", "llmclient.store_append", kind="method")
    recorder.patch(RecordStore, "open_replay", "llmclient.open_replay", kind="classmethod",
                   note=lambda a, k, r: len(r))
    recorder.patch(cges.genmodel, "simulate_trace", "genmodel.simulate_trace",
                   note=lambda a, k, r: a[1])
    recorder.patch(cges.genmodel, "drift", "genmodel.drift")
    recorder.patch(cges.harness, "replay_sampler", "sampler.replay", note=key_note, kind="factory")


SAMPLERS = ("sampler.replay", "sampler.live")


def layer_metrics(rec: SpanRecorder, workers: int, stub_log: list) -> dict[str, tuple[float, str]]:
    self_s = rec.self_times_s()

    def spans(*names):
        return [i for name in names for i in rec.spans(name)]

    def total_self(*names):
        return math.fsum(self_s[i] for i in spans(*names))

    def total_dur(*names):
        return math.fsum(rec.duration_s(i) for i in spans(*names))

    def notes(*names):
        return [rec.notes[i] for i in spans(*names) if i in rec.notes]

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    sampler_spans = spans(*SAMPLERS)
    keys = notes(*SAMPLERS)
    runs = spans("controller.run")
    rounds = {run: 0 for run in runs}
    for index in sampler_spans:
        run = rec.ancestor(index, "controller.run")
        if run in rounds:
            rounds[run] = max(rounds[run], rec.notes[index][1])
    capacity = math.fsum(rec.duration_s(run) * workers for run in runs)
    busy = total_dur(*SAMPLERS)
    samples_scored = sum(notes("posterior.score"))
    posterior_self = total_self("posterior.score", "posterior.from_samples")
    controller_self = total_self("controller.run")
    load_s = total_dur("llmclient.open_replay")
    tokens = sum(notes("confidence.lns_arithmetic", "confidence.lns_geometric"))
    confidence_self = total_self("confidence.lns_arithmetic", "confidence.lns_geometric")
    rounds_simulated = sum(notes("genmodel.simulate_trace"))
    sim_self = total_self("genmodel.simulate_trace")

    injected: dict[int, list[float]] = {}
    for seed, _attempt, _status, latency_ms in stub_log:
        injected.setdefault(seed, []).append(latency_ms)
    overheads = [
        rec.duration_s(i) * 1000.0 - injected[rec.notes[i]][0]
        for i in spans("llmclient.sample_once")
        if len(injected.get(rec.notes[i], ())) == 1
    ]
    sample_once_calls = len(spans("llmclient.sample_once"))
    return {
        "posterior.score.calls": (len(spans("posterior.score")), "count"),
        "posterior.samples_scored": (samples_scored, "count"),
        "posterior.self_s": (posterior_self, "s"),
        "posterior.us_per_sample": (per(posterior_self, samples_scored, 1e6), "us"),
        "controller.runs": (len(runs), "count"),
        "controller.rounds": (sum(rounds.values()), "count"),
        "controller.self_s": (controller_self, "s"),
        "controller.us_per_call": (per(controller_self, len(sampler_spans), 1e6), "us"),
        "controller.worker_util": (per(busy, capacity), "ratio"),
        "controller.barrier_idle_s": (capacity - busy if runs else 0.0, "s"),
        "harness.run_method.calls": (len(spans("harness.run_method")), "count"),
        "harness.sampler_calls": (len(sampler_spans), "count"),
        "harness.unique_sample_ratio": (per(len(set(keys)), len(keys)), "ratio"),
        "harness.self_s": (total_self("harness.run_method"), "s"),
        "llmclient.store_load_s": (load_s, "s"),
        "llmclient.store_records_per_s": (per(sum(notes("llmclient.open_replay")), load_s), "1/s"),
        "llmclient.replay.self_s": (total_self("sampler.replay"), "s"),
        "llmclient.http.requests": (len(stub_log), "count"),
        "llmclient.http.retries": (len(stub_log) - sample_once_calls, "count"),
        "llmclient.http.failed": (sum(status != 200 for _, _, status, _ in stub_log), "count"),
        "llmclient.sample_once.self_s": (total_self("llmclient.sample_once"), "s"),
        "llmclient.client_overhead_ms": (statistics.median(overheads) if overheads else 0.0, "ms"),
        "llmclient.store_append_s": (total_dur("llmclient.store_append"), "s"),
        "confidence.calls": (len(spans("confidence.lns_arithmetic", "confidence.lns_geometric")), "count"),
        "confidence.self_s": (confidence_self, "s"),
        "confidence.us_per_token": (per(confidence_self, tokens, 1e6), "us"),
        "genmodel.trials": (len(spans("genmodel.simulate_trace")), "count"),
        "genmodel.simulate_trace.self_s": (sim_self, "s"),
        "genmodel.us_per_round": (per(sim_self, rounds_simulated, 1e6), "us"),
        "genmodel.drift_s": (total_dur("genmodel.drift"), "s"),
    }
