"""Tests for the bytecode compiler, disassembler and code cache."""

import pytest

from repro.bytecode.cache import (
    CodeCache,
    decode_code,
    encode_code,
    source_hash,
)
from repro.bytecode.code import SiteKind
from repro.bytecode.compiler import compile_source
from repro.bytecode.disasm import disassemble
from repro.bytecode.opcodes import Op
from repro.lang.errors import JSLCompileError


def ops_of(code):
    return [instruction[0] for instruction in code.instructions]


class TestCompilation:
    def test_toplevel_ends_with_return_undefined(self):
        code = compile_source("var x = 1;")
        assert ops_of(code)[-2:] == [Op.LOAD_UNDEFINED, Op.RETURN]

    def test_determinism(self):
        source = "function f(a) { return a.x + a.y; } var o = {x: 1, y: 2}; f(o);"
        a = compile_source(source, "d.jsl")
        b = compile_source(source, "d.jsl")
        assert a.instructions == b.instructions
        assert [s.site_key for s in a.feedback_slots] == [
            s.site_key for s in b.feedback_slots
        ]

    def test_member_load_allocates_named_load_slot(self):
        code = compile_source("var v = o.prop;")
        kinds = [slot.kind for slot in code.feedback_slots]
        assert SiteKind.NAMED_LOAD in kinds

    def test_member_store_allocates_named_store_slot(self):
        code = compile_source("o.prop = 1;")
        assert SiteKind.NAMED_STORE in [s.kind for s in code.feedback_slots]

    def test_object_literal_props_are_store_sites(self):
        code = compile_source("var o = {a: 1, b: 2};")
        stores = [s for s in code.feedback_slots if s.kind is SiteKind.NAMED_STORE]
        assert {s.name for s in stores} >= {"a", "b"}

    def test_keyed_sites(self):
        code = compile_source("o[k] = o[j];")
        kinds = [s.kind for s in code.feedback_slots]
        assert SiteKind.KEYED_LOAD in kinds and SiteKind.KEYED_STORE in kinds

    def test_global_sites(self):
        code = compile_source("var g = 1; x = g;")
        kinds = [s.kind for s in code.feedback_slots]
        assert SiteKind.GLOBAL_LOAD in kinds and SiteKind.GLOBAL_STORE in kinds

    def test_compound_member_assignment_has_two_distinct_sites(self):
        code = compile_source("o.n += 1;")
        sites = [s for s in code.feedback_slots if s.name == "n"]
        assert {s.kind for s in sites} == {SiteKind.NAMED_LOAD, SiteKind.NAMED_STORE}
        assert len({s.site_key for s in sites}) == 2

    def test_site_keys_unique_within_program(self):
        source = "o.x = o.x + o.x; p.x = 1; function f(q) { return q.x; }"
        code = compile_source(source)
        keys = [
            s.site_key
            for c in code.iter_code_objects()
            for s in c.feedback_slots
        ]
        assert len(keys) == len(set(keys))

    def test_locals_resolved_within_function(self):
        code = compile_source("function f(a) { var b = a; return b; }")
        inner = next(c for c in code.iter_code_objects() if c.name == "f")
        assert inner.local_names[:2] == ["a", "b"]
        assert Op.LOAD_LOCAL in ops_of(inner)
        assert Op.LOAD_GLOBAL not in ops_of(inner)

    def test_free_variables_use_env_ops(self):
        code = compile_source(
            "function outer(x) { return function () { return x; }; }"
        )
        innermost = [c for c in code.iter_code_objects()][-1]
        assert Op.LOAD_ENV in ops_of(innermost)

    def test_nested_code_objects_enumerated(self):
        code = compile_source("function a() { function b() {} } var c = function () {};")
        names = [c.name for c in code.iter_code_objects()]
        assert set(names) >= {"<toplevel>", "a", "b", "<anonymous>"}

    def test_decl_key_stability(self):
        source = "function f() {}"
        a = compile_source(source, "k.jsl")
        b = compile_source(source, "k.jsl")
        fa = next(c for c in a.iter_code_objects() if c.name == "f")
        fb = next(c for c in b.iter_code_objects() if c.name == "f")
        assert fa.decl_key == fb.decl_key

    def test_break_outside_loop_rejected(self):
        with pytest.raises(JSLCompileError):
            compile_source("break;")

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(JSLCompileError):
            compile_source("continue;")

    def test_jump_targets_in_range(self):
        source = """
        for (var i = 0; i < 3; i++) { if (i === 1) continue; if (i === 2) break; }
        while (x) { y; }
        do { z; } while (w);
        switch (v) { case 1: break; default: ; }
        """
        code = compile_source(source)
        jump_ops = {
            Op.JUMP,
            Op.JUMP_IF_FALSE,
            Op.JUMP_IF_TRUE,
            Op.JUMP_IF_FALSE_KEEP,
            Op.JUMP_IF_TRUE_KEEP,
            Op.SETUP_TRY,
            Op.FOR_IN_NEXT,
        }
        for op, a, _ in code.instructions:
            if Op(op) in jump_ops:
                assert 0 <= a <= len(code.instructions)


class TestDisassembler:
    def test_mentions_names_and_constants(self):
        code = compile_source("var o = {}; o.x = 42; console.log(o.x);", "d.jsl")
        text = disassemble(code)
        assert "SET_PROP name='x'" in text
        assert "42" in text
        assert "LOAD_GLOBAL name='console'" in text

    def test_recursive_disassembly_includes_nested(self):
        code = compile_source("function f() { return 1; }")
        text = disassemble(code, recursive=True)
        assert "=== f " in text

    def test_every_opcode_renders(self):
        source = """
        var o = {a: [1]};
        function f(x) { return x; }
        try { throw 1; } catch (e) {}
        for (var k in o) { delete o[k]; }
        o.a[0] += new f(1) instanceof f ? 1 : 2;
        var s = typeof missing;
        !o; -1; o && o; o || o;
        do { break; } while (true);
        switch (1) { default: ; }
        """
        code = compile_source(source)
        for nested in code.iter_code_objects():
            assert disassemble(nested)  # must not raise


class TestCodeCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CodeCache(cache_dir=tmp_path)
        assert cache.lookup("a.jsl", "var x = 1;") is None
        code = compile_source("var x = 1;", "a.jsl")
        cache.store("a.jsl", "var x = 1;", code)
        assert cache.lookup("a.jsl", "var x = 1;") is code
        assert cache.misses == 1 and cache.hits == 1

    def test_source_change_invalidates(self, tmp_path):
        cache = CodeCache(cache_dir=tmp_path)
        cache.store("a.jsl", "var x = 1;", compile_source("var x = 1;", "a.jsl"))
        assert cache.lookup("a.jsl", "var x = 2;") is None

    def test_disk_round_trip(self, tmp_path):
        source = "function f(o) { return o.v; } var r = f({v: 3});"
        first = CodeCache(cache_dir=tmp_path)
        code = compile_source(source, "lib.jsl")
        first.store("lib.jsl", source, code)
        second = CodeCache(cache_dir=tmp_path)  # fresh process, same dir
        loaded = second.lookup("lib.jsl", source)
        assert loaded is not None
        assert loaded.instructions == code.instructions
        assert [s.site_key for s in loaded.feedback_slots] == [
            s.site_key for s in code.feedback_slots
        ]

    def test_corrupt_disk_entry_ignored(self, tmp_path):
        source = "var x = 1;"
        cache = CodeCache(cache_dir=tmp_path)
        cache.store("a.jsl", source, compile_source(source, "a.jsl"))
        entries = list(tmp_path.glob("*.jslcache"))
        assert entries
        for path in entries:
            path.write_text("{ not json")
        fresh = CodeCache(cache_dir=tmp_path)
        assert fresh.lookup("a.jsl", source) is None

    def test_codec_round_trip_nested_functions(self):
        source = """
        function outer(a) {
          var captured = a * 2;
          return function inner(b) { return captured + b; };
        }
        """
        code = compile_source(source, "n.jsl")
        restored = decode_code(encode_code("n.jsl:k", code), "n.jsl:k")
        assert restored == code
        originals = list(code.iter_code_objects())
        restoreds = list(restored.iter_code_objects())
        assert len(originals) == len(restoreds) == 3
        for a, b in zip(originals, restoreds):
            assert a.instructions == b.instructions
            assert a.positions == b.positions
            assert a.feedback_slots == b.feedback_slots
            assert a.decl_key == b.decl_key

    def test_cached_code_executes_identically(self, tmp_path):
        from repro.core.engine import Engine

        source = "function f(o) { return o.v * 2; } console.log(f({v: 21}));"
        engine_a = Engine(seed=1, cache_dir=str(tmp_path))
        out_a = engine_a.run([("s.jsl", source)], name="a").console_output
        engine_b = Engine(seed=2, cache_dir=str(tmp_path))
        out_b = engine_b.run([("s.jsl", source)], name="b").console_output
        assert out_a == out_b == ["42"]
        assert engine_b.code_cache.hits == 1

    def test_source_hash_stable(self):
        assert source_hash("abc") == source_hash("abc")
        assert source_hash("abc") != source_hash("abd")
