"""The feedback-driven bytecode passes against full-scan references.

``collect_arith_feedback`` visits only the pcs that executed or carry a
typed opcode, and ``quicken_code`` compares plain-int opcodes.
``tests/reference_passes.py`` keeps both as plain scans over every
instruction.  On every workload, the fuzz generators and a quickened run
whose typed sites deopted, the collected feedback must be equal entry for
entry and in the same order, and the quickened trees whole-tree equal.
"""

import random

import pytest

from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.specialize.feedback import collect_arith_feedback
from repro.specialize.quicken import (
    TYPED_OPS,
    merge_site_feedback,
    quicken_code,
)
from repro.workloads import WORKLOADS, polyshapes, typedarith
from repro.workloads.synthetic import generated_scripts
from tests import reference_passes
from tests.test_fuzz_programs import (
    polymorphic_shape_program,
    property_heavy_program,
    storm_sources,
    type_stable_program,
    type_unstable_program,
)


def assert_arith_feedback_matches(feedback, filenames) -> None:
    for filename in (None, *filenames):
        new = collect_arith_feedback(feedback, filename=filename)
        reference = reference_passes.collect_arith_feedback(feedback, filename=filename)
        assert list(new.items()) == list(reference.items())


def assert_quickening_matches(artifacts, feedback_map) -> int:
    total = 0
    for artifact in artifacts:
        generic = artifact.generic_code or artifact.code
        new, count = quicken_code(generic, feedback_map)
        reference, reference_count = reference_passes.quicken_code(
            generic, feedback_map
        )
        assert count == reference_count
        assert (new is generic) == (reference is generic)
        assert new == reference  # dataclass equality: the whole tree
        total += count
    return total


def check_protocol(scripts, config: RICConfig) -> dict:
    """Train, compare both passes, then reuse and compare again."""
    engine = Engine(config=config, seed=17)
    engine.run(scripts, name="train")
    trained = engine.last_run
    filenames = [filename for filename, _ in scripts]
    assert_arith_feedback_matches(trained.feedback, filenames)

    record = engine.extract_icrecord()
    feedback_map = merge_site_feedback([record])
    specialized = assert_quickening_matches(trained.artifacts, feedback_map)

    reused = engine.run(scripts, name="reuse", icrecord=record)
    assert_arith_feedback_matches(engine.last_run.feedback, filenames)
    return {"specialized": specialized, "reused": reused}


def hot_program_scripts():
    return [
        (f"{module.NAME}.jsl", module.SOURCE) for module in (typedarith, polyshapes)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_library_workloads(name):
    check_protocol(WORKLOADS[name].scripts(), RICConfig())


def test_hot_programs_and_synthetic():
    result = check_protocol(hot_program_scripts(), RICConfig())
    assert result["specialized"] > 0
    check_protocol(generated_scripts(shapes=8, fields_per_shape=3), RICConfig())


@pytest.mark.parametrize("seed", range(3))
def test_fuzz_generators(seed):
    programs = [
        property_heavy_program(random.Random(100 + seed)),
        polymorphic_shape_program(random.Random(200 + seed), (1, 2, 3, 4, 5)),
        type_stable_program(random.Random(300 + seed)),
        type_unstable_program(random.Random(400 + seed)),
    ]
    for index, source in enumerate(programs):
        check_protocol([(f"fuzz{index}.jsl", source)], RICConfig())


def test_quickened_run_with_deopts():
    """Typed sites that deopted mid-run were patched back to generic
    opcodes; the rest still carry typed opcodes whose masks are
    synthesized.  Both passes must agree on that mixed tree."""
    lib, trainer, storm = storm_sources(random.Random(7000))
    config = RICConfig(specialize=True)
    trainer_engine = Engine(config=config, seed=31)
    trainer_engine.run([("lib.jsl", lib), ("train.jsl", trainer)], name="train")
    lib_record = trainer_engine.extract_per_script_records()["lib.jsl"]

    scripts = [("lib.jsl", lib), ("storm.jsl", storm)]
    engine = Engine(config=config, seed=77)
    profile = engine.run(scripts, name="storm", icrecord=lib_record)
    assert profile.counters.deopts >= 1
    assert_arith_feedback_matches(engine.last_run.feedback, ["lib.jsl", "storm.jsl"])

    # And a quickened run that kept its typed opcodes.
    engine = Engine(config=config, seed=17)
    engine.run(hot_program_scripts(), name="train")
    record = engine.extract_icrecord()
    reused = engine.run(hot_program_scripts(), name="reuse", icrecord=record)
    assert reused.counters.specialized_sites > 0
    run = engine.last_run
    assert any(
        op in TYPED_OPS
        for code in run.exec_codes
        for node in code.iter_code_objects()
        for op, _, _ in node.instructions
    )
    assert_arith_feedback_matches(run.feedback, [f for f, _ in hot_program_scripts()])
