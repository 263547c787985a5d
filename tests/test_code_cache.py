"""The code cache's on-disk codec (docs/INTERNALS.md, "Code cache").

Two walls:

* **round trip** — ``decode_code(encode_code(code)) == code`` as whole
  dataclasses (positions, feedback slots and nested constants included)
  over every program family the repo has: the bench workloads,
  ``examples/jsl``, the jsl suite, the synthetic generator at its range
  corners, a hypothesis program strategy, awkward float/str constants
  and nested closures;
* **damage** — any undecodable, edited or truncated entry is a miss:
  ``lookup`` returns ``None`` and logs a warning, the frontend
  recompiles, the program computes what a fresh compile computes and
  ``store`` rewrites the entry.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.bytecode.cache import (
    CACHE_FORMAT_VERSION,
    CodeCache,
    CodeCacheError,
    decode_code,
    encode_code,
)
from repro.bytecode.code import CodeObject
from repro.bytecode.compiler import compile_source
from repro.bytecode.optimizer import optimize_code
from repro.core.engine import Engine
from repro.harness.bench import bench_workloads
from repro.workloads.synthetic import generated_scripts
from tests.helpers import code_fingerprint
from tests.test_fuzz_programs import jsl_programs

ROOT = Path(__file__).resolve().parent.parent

#: magic, format version, sha256 of the body
HEADER = struct.Struct("<4sH32s")

#: The synthetic generator's corners: every knob at its minimum, the
#: defaults, and every knob well above the defaults.
SYNTHETIC_CORNERS = (
    dict(shapes=1, fields_per_shape=1, sites_per_shape=1, instances=1),
    dict(shapes=1, fields_per_shape=12, sites_per_shape=1, instances=8),
    dict(shapes=30, fields_per_shape=1, sites_per_shape=9, instances=1),
    dict(),
    dict(shapes=30, fields_per_shape=12, sites_per_shape=9, instances=8),
)

SPECIAL_CONSTANTS = (
    'var z = -0; var n = 0/0; var i = 1/0; var j = -1/0;\n'
    'var e = ""; var s = "\\uD800";\n'
    'console.log(1/z, n, i, j, e.length, s.length);\n'
)

CLOSURES = """
function a(x) {
  var ax = x * 2;
  return function b(y) {
    var by = ax + y;
    return function c(z) { return ax + by + z; };
  };
}
console.log(a(1)(2)(3));
"""


def _corpus() -> list:
    sources = []
    for scripts in bench_workloads().values():
        sources += scripts
    for pattern in ("examples/jsl/*.jsl", "tests/jsl_suite/*.jsl"):
        sources += [(p.name, p.read_text()) for p in sorted(ROOT.glob(pattern))]
    for corner in SYNTHETIC_CORNERS:
        sources += generated_scripts(**corner)
    sources += [("special.jsl", SPECIAL_CONSTANTS), ("closures.jsl", CLOSURES)]
    return sources


CORPUS = _corpus()


def compiled(filename: str, source: str, optimize: bool = True):
    code = compile_source(source, filename)
    if optimize:
        optimize_code(code)
    return code


def round_trip(code, key: str = "k"):
    return decode_code(encode_code(key, code), key)


def assert_round_trips(code) -> None:
    restored = round_trip(code)
    assert code_fingerprint(restored) == code_fingerprint(code)
    # Plain dataclass equality too, unless a NaN constant (never equal
    # to a copy of itself) makes it unusable.
    has_nan = any(
        c != c for node in code.iter_code_objects() for c in node.constants
    )
    if not has_nan:
        assert restored == code


# -- round trip ------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize(
        "filename,source", CORPUS, ids=[name for name, _ in CORPUS]
    )
    @pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "raw"])
    def test_corpus_round_trips_exactly(self, filename, source, optimize):
        assert_round_trips(compiled(filename, source, optimize))

    @given(jsl_programs())
    @settings(max_examples=40, deadline=None)
    def test_generated_programs_round_trip(self, source):
        assert_round_trips(compiled("gen.jsl", source))

    def test_special_constants_survive_bit_exactly(self):
        code = compiled("special.jsl", SPECIAL_CONSTANTS)
        floats = [c for c in code.constants if type(c) is float]
        bits = {struct.pack("<d", c) for c in floats}
        for value in (-0.0, float("inf"), float("-inf")):
            assert struct.pack("<d", value) in bits
        assert any(c != c for c in floats)  # NaN
        assert {"", "\ud800"} <= set(code.constants)
        assert_round_trips(code)

    def test_closures_three_deep(self):
        code = compiled("closures.jsl", CLOSURES)
        depth = 0
        node = code
        while True:
            nested = [c for c in node.constants if isinstance(c, CodeObject)]
            if not nested:
                break
            node, depth = nested[0], depth + 1
        assert depth == 3
        assert_round_trips(code)

    def test_equal_tuples_load_shared(self):
        """The whole point of the format: equal instruction and
        position tuples are one object after loading."""
        (filename, source), = bench_workloads()["angularlike"]
        restored = round_trip(compiled(filename, source))
        instructions = [
            i for node in restored.iter_code_objects() for i in node.instructions
        ]
        positions = [
            p for node in restored.iter_code_objects() for p in node.positions
        ]
        assert len({id(i) for i in instructions}) == len(set(instructions))
        assert len({id(p) for p in positions}) == len(set(positions))
        assert len(set(instructions)) < len(instructions) / 2

    @pytest.mark.parametrize("filename,source", CORPUS[-2:], ids=["special", "closures"])
    def test_cache_loaded_code_prints_the_same(self, tmp_path, filename, source):
        fresh = Engine(seed=3).run([(filename, source)], name="fresh")
        Engine(seed=3, cache_dir=str(tmp_path)).run([(filename, source)], name="fill")
        engine = Engine(seed=3, cache_dir=str(tmp_path))
        loaded = engine.run([(filename, source)], name="loaded")
        assert engine.code_cache.hits == 1 and engine.code_cache.misses == 0
        assert loaded.console_output == fresh.console_output

    def test_quickened_code_is_refused(self):
        code = compiled("closures.jsl", CLOSURES)
        code.spec_table.append((0, 0))
        with pytest.raises(ValueError):
            encode_code("k", code)

    def test_seven_libraries_take_at_most_half_their_json_size(self):
        """The JSON codec this format replaced wrote, per entry,
        ``json.dumps`` of nested dicts and lists; this is that size,
        rebuilt here for the comparison."""

        def json_size(key, code) -> int:
            def encode(node):
                return {
                    "name": node.name,
                    "filename": node.filename,
                    "params": node.params,
                    "position": [node.filename, node.position.line, node.position.column],
                    "decl_key": node.decl_key,
                    "instructions": [list(i) for i in node.instructions],
                    "positions": [list(p) for p in node.positions],
                    "constants": [
                        {"kind": "code", "value": encode(c)}
                        if isinstance(c, CodeObject)
                        else {"kind": "num" if type(c) is float else "str", "value": c}
                        for c in node.constants
                    ],
                    "names": node.names,
                    "local_names": node.local_names,
                    "feedback_slots": [
                        [s.kind.value, [node.filename, s.position.line, s.position.column], s.name]
                        for s in node.feedback_slots
                    ],
                }

            payload = {"version": 5, "key": key, "code": encode(code)}
            return len(json.dumps(payload))

        libraries = (
            "angularlike", "reactlike", "jquerylike", "underscorelike",
            "handlebarslike", "camanlike", "jsfeatlike",
        )
        workloads = bench_workloads()
        codes = [compiled(f, s) for name in libraries for f, s in workloads[name]]
        keys = [f"{c.filename}:0123456789abcdef" for c in codes]
        new = sum(len(encode_code(k, c)) for k, c in zip(keys, codes))
        old = sum(json_size(k, c) for k, c in zip(keys, codes))
        assert new <= old / 2, (new, old)


# -- damage is a miss ------------------------------------------------------------

SOURCE = "var x = 2; function f(o) { return o.v * x; } console.log(x, f({v: 3}));"


def _forge(key: str, body: bytes, version: int = CACHE_FORMAT_VERSION) -> bytes:
    """An entry whose header and digest are valid for ``body``."""
    return HEADER.pack(b"JSLC", version, hashlib.sha256(body).digest()) + body


def _rows(key: str) -> list:
    return marshal.loads(encode_code(key, compiled("a.jsl", SOURCE))[HEADER.size:])[1]


def _entry(tmp_path: Path) -> Path:
    entries = list(tmp_path.glob("*.jslcache"))
    assert len(entries) == 1
    return entries[0]


def _bad_bodies(key: str) -> dict:
    rows = _rows(key)
    bad_kind = list(rows)
    slot_row = next(i for i, row in enumerate(rows) if row[-1])
    slot = rows[slot_row][-1][0]
    bad_kind[slot_row] = rows[slot_row][:-1] + ([(99,) + slot[1:]],)
    wrong_field = list(rows)
    wrong_field[0] = rows[0][:6] + ("not a list",) + rows[0][7:]
    self_reference = list(rows)
    self_reference[0] = rows[0][:8] + ([0],) + rows[0][9:]
    return {
        "eof": marshal.dumps((key, rows))[:-7],
        "bad-marshal-type": b"\xfe\x00\x00",
        "not-a-pair": marshal.dumps("code"),
        "rows-not-a-list": marshal.dumps((key, "rows")),
        "no-rows": marshal.dumps((key, [])),
        "short-row": marshal.dumps((key, [("a.jsl",)])),
        "unknown-site-kind": marshal.dumps((key, bad_kind)),
        "wrong-field-type": marshal.dumps((key, wrong_field)),
        "bad-code-reference": marshal.dumps((key, self_reference)),
        "other-key": marshal.dumps(("b.jsl:0000000000000000", rows)),
    }


class TestDamagedEntryIsAMiss:
    def _store(self, tmp_path: Path) -> tuple:
        cache = CodeCache(cache_dir=tmp_path)
        cache.store("a.jsl", SOURCE, compiled("a.jsl", SOURCE))
        return CodeCache._key("a.jsl", SOURCE), _entry(tmp_path)

    def _assert_miss(self, tmp_path: Path, caplog) -> None:
        fresh = CodeCache(cache_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro.bytecode.cache"):
            assert fresh.lookup("a.jsl", SOURCE) is None
        assert fresh.misses == 1 and fresh.hits == 0
        warnings = [r for r in caplog.records if r.name == "repro.bytecode.cache"]
        assert len(warnings) == 1
        caplog.clear()

    @pytest.mark.parametrize(
        "blob",
        [
            b"\xff\xfe",
            b"[1, 2]",
            json.dumps({"version": CACHE_FORMAT_VERSION, "key": "a.jsl"}).encode(),
            b"",
        ],
        ids=["non-utf8", "json-list", "json-missing-field", "empty"],
    )
    def test_foreign_bytes(self, tmp_path, caplog, blob):
        _, path = self._store(tmp_path)
        path.write_bytes(blob)
        self._assert_miss(tmp_path, caplog)

    @pytest.mark.parametrize(
        "case", sorted(_bad_bodies("a.jsl:0000000000000000"))
    )
    def test_forged_body_with_a_valid_digest(self, tmp_path, caplog, case):
        key, path = self._store(tmp_path)
        path.write_bytes(_forge(key, _bad_bodies(key)[case]))
        with pytest.raises(CodeCacheError):
            decode_code(path.read_bytes(), key)
        self._assert_miss(tmp_path, caplog)

    def test_other_format_version(self, tmp_path, caplog):
        key, path = self._store(tmp_path)
        body = path.read_bytes()[HEADER.size:]
        path.write_bytes(_forge(key, body, version=CACHE_FORMAT_VERSION - 1))
        self._assert_miss(tmp_path, caplog)
        path.write_bytes(_forge(key, body))
        assert CodeCache(cache_dir=tmp_path).lookup("a.jsl", SOURCE) is not None

    def test_every_flipped_byte_is_a_miss(self, tmp_path):
        key, path = self._store(tmp_path)
        blob = path.read_bytes()
        decode_code(blob, key)  # the pristine entry decodes
        for offset in range(len(blob)):
            damaged = bytearray(blob)
            damaged[offset] ^= 0x5A
            with pytest.raises(CodeCacheError):
                decode_code(bytes(damaged), key)

    def test_every_truncation_is_a_miss(self, tmp_path):
        key, path = self._store(tmp_path)
        blob = path.read_bytes()
        for length in range(len(blob)):
            with pytest.raises(CodeCacheError):
                decode_code(blob[:length], key)

    def test_unreadable_entry_is_a_miss(self, tmp_path, caplog):
        _, path = self._store(tmp_path)
        path.unlink()
        path.mkdir()  # reading a directory raises IsADirectoryError
        self._assert_miss(tmp_path, caplog)


class TestEditedEntryRecovers:
    """An entry edited on disk (here: the constant ``2`` rewritten to
    ``7``) must never run: the digest refuses it, the frontend
    recompiles, and the entry is rewritten with the fresh compile."""

    def test_edited_constant_is_recompiled_and_rewritten(self, tmp_path, caplog):
        scripts = [("a.jsl", SOURCE)]
        expected = Engine(seed=5).run(scripts, name="fresh").console_output
        assert expected == ["2 6"]
        Engine(seed=5, cache_dir=str(tmp_path)).run(scripts, name="fill")
        path = _entry(tmp_path)
        blob = path.read_bytes()
        two, seven = struct.pack("<d", 2.0), struct.pack("<d", 7.0)
        assert blob.count(two) == 1
        path.write_bytes(blob.replace(two, seven))

        engine = Engine(seed=5, cache_dir=str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.bytecode.cache"):
            profile = engine.run(scripts, name="edited")
        assert profile.console_output == expected
        assert engine.code_cache.misses == 1
        assert "digest mismatch" in caplog.text

        key = CodeCache._key("a.jsl", SOURCE)
        rewritten = decode_code(path.read_bytes(), key)
        assert code_fingerprint(rewritten) == code_fingerprint(compiled("a.jsl", SOURCE))

    def test_ric_run_survives_a_two_byte_entry(self, tmp_path, capsys, caplog):
        from repro.harness.run_cli import main

        script = tmp_path / "s.jsl"
        script.write_text(SOURCE)
        cache_dir = tmp_path / "cache"
        assert main(["--cache-dir", str(cache_dir), str(script)]) == 0
        first = capsys.readouterr().out
        path = _entry(cache_dir)
        path.write_bytes(b"\xff\xfe")
        with caplog.at_level("WARNING", logger="repro.bytecode.cache"):
            assert main(["--cache-dir", str(cache_dir), str(script)]) == 0
        assert capsys.readouterr().out == first
        assert "ignoring damaged code-cache entry" in caplog.text
        # The recompile overwrote the damaged entry.
        assert path.read_bytes()[:4] == b"JSLC"
