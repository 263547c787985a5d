"""Reusable execution helpers for the test suite."""

from __future__ import annotations

import dataclasses
import enum
import struct

import pytest

from repro.bytecode.compiler import compile_source
from repro.core.engine import Engine
from repro.ic.icvector import FeedbackState
from repro.ic.miss import ICRuntime
from repro.interpreter.vm import VM
from repro.runtime.builtins import install_builtins
from repro.runtime.context import Runtime
from repro.stats.counters import Counters


class ExecutionResult:
    """Everything a test usually wants from running a jsl snippet."""

    def __init__(self, runtime, counters, feedback, vm, value):
        self.runtime = runtime
        self.counters = counters
        self.feedback = feedback
        self.vm = vm
        self.value = value

    @property
    def console(self) -> list[str]:
        return self.runtime.console_output


def run_jsl(source: str, seed: int = 42, filename: str = "test.jsl") -> ExecutionResult:
    """Compile and execute a snippet in a fresh runtime; return the state."""
    code = compile_source(source, filename)
    runtime = Runtime(seed=seed)
    counters = Counters()

    def on_created(hc):
        counters.hidden_classes_created += 1

    runtime.hidden_classes.on_created = on_created
    install_builtins(runtime)
    feedback = FeedbackState()
    feedback.register_script(code)
    ic_runtime = ICRuntime(runtime, counters)
    vm = VM(runtime, counters, ic_runtime, feedback)
    value = vm.run_code(code)
    return ExecutionResult(runtime, counters, feedback, vm, value)


class ColdReuseRuns:
    """The pair of runs every reuse-oriented test wants, plus their inputs.

    ``cold_state`` / ``reused_state`` are the canonical, address-free
    serializations of the user-visible global heap after each run
    (:func:`repro.baselines.snapshot.serialize_user_globals`) — the
    differential suite's heap-observable-state oracle.
    """

    def __init__(self, engine, record, cold, reused, cold_state, reused_state):
        self.engine = engine
        self.record = record
        self.cold = cold
        self.reused = reused
        self.cold_state = cold_state
        self.reused_state = reused_state

    @property
    def outputs_identical(self) -> bool:
        return self.cold.console_output == self.reused.console_output


def run_cold_and_reused(
    scripts,
    *,
    seed: int = 123,
    name: str = "workload",
    config=None,
    icrecord=None,
    record_from=None,
) -> ColdReuseRuns:
    """Run a workload cold and RIC-reused in one engine.

    By default the record comes from an Initial run of ``scripts`` itself
    (the paper's protocol: Initial -> extract -> cold/Conventional -> RIC).
    Pass ``record_from`` to extract it from a *different* workload
    (cross-workload reuse), or ``icrecord`` to supply one directly (e.g. a
    fault-injected record loaded from disk; the cold run is then the
    engine's first, truly cold run).
    """
    from repro.baselines.snapshot import serialize_user_globals

    engine = Engine(config=config, seed=seed)
    record = icrecord
    if record is None:
        engine.run(record_from if record_from is not None else scripts, name=name)
        record = engine.extract_icrecord()
    cold = engine.run(scripts, name=name)
    cold_state = serialize_user_globals(engine.last_run.runtime)
    reused = engine.run(scripts, name=name, icrecord=record)
    reused_state = serialize_user_globals(engine.last_run.runtime)
    return ColdReuseRuns(
        engine=engine,
        record=record,
        cold=cold,
        reused=reused,
        cold_state=cold_state,
        reused_state=reused_state,
    )


def code_fingerprint(value: object) -> object:
    """A deep, type-exact, bit-exact image of a code tree for equality.

    Dataclass ``==`` alone cannot compare trees holding NaN constants
    (``nan != nan``) and does not tell ``-0.0`` from ``0.0``, ``True``
    from ``1`` or a tuple from a list; this image does.
    """
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(code_fingerprint(v) for v in value))
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple(
                (field.name, code_fingerprint(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    return (type(value).__name__, value)


def eval_jsl(expression: str, seed: int = 42) -> object:
    """Evaluate a single jsl expression and return its guest value."""
    result = run_jsl(f"var __result = ({expression});", seed=seed)
    found, value = result.runtime.global_object.get_own("__result")
    assert found, "expression did not produce a result"
    return value


def console_of(source: str, seed: int = 42) -> list[str]:
    """Run a snippet and return its console output lines."""
    return run_jsl(source, seed=seed).console


@pytest.fixture
def engine() -> Engine:
    return Engine(seed=123)


@pytest.fixture
def fresh_runtime() -> Runtime:
    runtime = Runtime(seed=7)
    install_builtins(runtime)
    return runtime
