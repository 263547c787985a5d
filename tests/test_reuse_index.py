"""The indexed MultiReuseSession against the plain loop it replaces.

The reference offers every hidden class to every session and asks every
session to classify every miss.  The indexed session charges the same
TOAST lookups in one add and runs only the sessions whose records can
match.  Counters, trace events (order included), IC slot order and
output must be identical on every case.
"""

import random

import pytest

import repro.core.session as session_module
from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.ric.reuse import MultiReuseSession
from repro.stats.counters import MISS_HANDLER, MISS_OTHER
from repro.stats.tracing import Tracer
from repro.workloads import WORKLOADS, website_a
from tests.test_fuzz_programs import site_transcript


class ReferenceMultiReuseSession:
    """Every creation to every session; every miss to every session."""

    def __init__(self, sessions):
        self.sessions = sessions

    def on_hidden_class_created(self, hc):
        for session in self.sessions:
            session.on_hidden_class_created(hc)

    def classify_miss(self, site, hc):
        for session in self.sessions:
            if session.classify_miss(site, hc) == MISS_HANDLER:
                return MISS_HANDLER
        return MISS_OTHER


def library_scripts(seed: int) -> list:
    names = random.Random(seed).sample(sorted(WORKLOADS), len(WORKLOADS))
    return [(f"{name}.jsl", WORKLOADS[name].source) for name in names]


def website_a_records(config: RICConfig) -> list:
    trainer = Engine(config=config, seed=3)
    trainer.run(website_a(), name="a")
    return list(trainer.extract_per_script_records().values())


def fingerprint(scripts, records, config: RICConfig) -> dict:
    engine = Engine(config=config, seed=4)
    tracer = Tracer()
    profile = engine.run(scripts, name="b", icrecord=records, tracer=tracer)
    return {
        "output": profile.console_output,
        "counters": profile.counters.as_dict(),
        "toast_lookups": profile.counters.ric_toast_lookups,
        "events": [
            (e.sequence, e.kind, e.site_key, e.hc_index, e.detail)
            for e in tracer.events
        ],
        "sites": site_transcript(engine),
        "session": type(engine.last_run.reuse_session).__name__,
    }


def assert_matches_reference(monkeypatch, scripts, records, config) -> dict:
    indexed = fingerprint(scripts, records, config)
    with monkeypatch.context() as patch:
        patch.setattr(session_module, "MultiReuseSession", ReferenceMultiReuseSession)
        reference = fingerprint(scripts, records, config)
    assert indexed["session"] == "MultiReuseSession"
    assert reference["session"] == "ReferenceMultiReuseSession"
    for key in ("output", "counters", "toast_lookups", "events", "sites"):
        assert indexed[key] == reference[key], key
    return indexed


@pytest.mark.parametrize("order_seed", range(2))
def test_warm_reuse_inputs(monkeypatch, order_seed):
    config = RICConfig()
    records = website_a_records(config)
    result = assert_matches_reference(
        monkeypatch, library_scripts(order_seed), records, config
    )
    assert result["counters"]["ric_preloads"] > 0
    assert result["counters"]["misses_by_reason"][MISS_HANDLER] > 0
    assert result["toast_lookups"] == len(records) * result["counters"][
        "hidden_classes_created"
    ]


def test_changed_script_is_untrusted(monkeypatch):
    config = RICConfig()
    records = website_a_records(config)
    scripts = library_scripts(5)
    filename, source = scripts[2]
    scripts[2] = (filename, source + "\nvar edited = { v: 1 }; edited.w = 2;\n")
    result = assert_matches_reference(monkeypatch, scripts, records, config)
    preloaded = [e[2] for e in result["events"] if e[1] == "ric_preloaded"]
    assert preloaded
    assert not any(key.startswith(filename + ":") for key in preloaded)


def test_naive_ablation(monkeypatch):
    config = RICConfig(validate=False)
    records = website_a_records(config)
    assert_matches_reference(monkeypatch, library_scripts(7), records, config)


def test_sessions_sharing_a_builtin_key(monkeypatch):
    lib = "function K(v) { this.v = v; }\nvar k = new K(1); console.log(k.v);\n"
    app = (
        "var o = {};\no.a = 1;\no.b = 2;\n"
        "function get(x) { return x.b; }\nconsole.log(get(o), get({a: 3, b: 4}));\n"
    )
    scripts = [("lib.jsl", lib), ("app.jsl", app)]
    config = RICConfig()
    trainer = Engine(config=config, seed=8)
    trainer.run(scripts, name="t")
    records = list(trainer.extract_per_script_records().values())
    assert len(records) == 2
    assert all("builtin:EmptyObject" in record.toast for record in records)

    result = assert_matches_reference(monkeypatch, scripts, records, config)
    assert result["counters"]["ric_validations"] > 0

    engine = Engine(config=config, seed=4)
    engine.run(scripts, name="b", icrecord=records)
    multi = engine.last_run.reuse_session
    assert isinstance(multi, MultiReuseSession)
    indexed = [session for session, _ in multi._toast_index["builtin:EmptyObject"]]
    assert indexed == multi.sessions
