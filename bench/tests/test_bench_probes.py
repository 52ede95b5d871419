"""The probe table matches this commit; spans nest and restore."""

import probes
from probes import Probe, Tracer
from repro import Session


def test_every_probe_target_resolves_on_this_commit():
    for probe in probes.PROBES:
        probes.resolve(probe)


def test_a_missing_target_is_reported_not_raised():
    tracer = Tracer((Probe("core", "gone", "repro.core.engine",
                           "Engine.no_such_method"),
                     Probe("core", "gone", "repro.no_such_module", "f")))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["repro.core.engine:Engine.no_such_method",
                              "repro.no_such_module:f"]


def test_spans_nest_under_the_query_and_self_times_add_up():
    from repro.core.engine import Engine
    original = Engine.query
    session = Session("rotowire")
    tracer = Tracer()
    tracer.install()
    try:
        session.query("How many players are taller than 200?")
    finally:
        tracer.uninstall()
    assert Engine.query is original
    assert not tracer.missing

    roots = [span for span in tracer.spans if span["parent"] is None]
    assert [span["name"] for span in roots] == ["engine.query"]
    root = roots[0]
    assert all(span["query"] == root["id"] for span in tracer.spans)
    names = {span["name"] for span in tracer.spans}
    assert {"discovery", "planning", "mapping", "operator", "llm.complete",
            "colexec"} <= names
    operators = [span["attrs"]["operator"] for span in tracer.spans
                 if span["name"] == "operator"]
    assert operators and set(operators) <= {"SQL", "Join"}

    # Self time = span minus children, so self times sum to the root.
    total = sum(span["self_ms"] for span in tracer.spans)
    tallied = sum(ms for span in tracer.spans
                  for _count, ms in span["tallies"].values())
    assert abs(total + tallied - (root["end_ms"] - root["start_ms"])) < 1e-6

    metrics = probes.layer_metrics(tracer.totals(), tracer.samples,
                                   queries=1, rounds=1, llm=(4, 100, 10))
    assert metrics["llm.calls_per_query"] == 4
    assert metrics["operators.steps_per_query"] == len(operators)
    assert metrics["relational.colexec_share"] == 1.0
    assert 0.0 < metrics["harness.unattributed_share"] < 1.0


def test_tallies_fold_into_the_enclosing_span():
    session = Session("artwork")
    session.query("How many paintings are depicting a sword?")  # warm
    tracer = Tracer()
    tracer.install()
    try:
        session.query("How many paintings are depicting a sword?")
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals.tally_count["answer_cache.get"] == 120
    assert "vision.infer" not in totals.tally_count
