"""Built-in objects, installed deterministically at runtime startup.

Built-ins (Object, Array, Math, console, ...) are created in a fixed order
before any guest code runs, so their hidden classes are "deterministic in
every execution" — which is why the paper marks them validated immediately
at startup of a Reuse run (§4) and gives them incoming-less TOAST entries
(§5.1).  Every built-in hidden class here carries a stable
``builtin:<name>`` creation key for exactly that purpose.

Native functions have the signature ``native(vm, this_value, args)`` and
may call back into guest code through ``vm.call_value`` (e.g. forEach).
"""

from __future__ import annotations

import json as _json
import math
import time
import typing

from repro.lang.errors import JSLTypeError
from repro.runtime.context import Runtime
from repro.runtime.hidden_class import ARRAY_ROOT_KEY
from repro.runtime.objects import JSArray, JSFunction, JSObject
from repro.runtime.values import (
    NULL,
    UNDEFINED,
    number_to_string,
    to_boolean,
    to_number,
    to_property_key,
    to_string,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.interpreter.vm import VM

#: Global-object property order; fixed so the global hidden class layout is
#: identical in every execution.
GLOBAL_LAYOUT = [
    "globalThis",
    "Object",
    "Function",
    "Array",
    "String",
    "Number",
    "Math",
    "JSON",
    "console",
    "Date",
    "Error",
    "TypeError",
    "RangeError",
    "isNaN",
    "isFinite",
    "parseInt",
    "parseFloat",
    "NaN",
    "Infinity",
]


def install_builtins(runtime: Runtime) -> None:
    """Create every built-in object and wire up the global object."""
    registry = runtime.hidden_classes

    # --- root hidden classes (order matters and is part of the contract) ---
    hc_object_prototype = registry.create_root(
        "builtin",
        "builtin:Object.prototype",
        prototype=None,
        layout={"hasOwnProperty": 0, "toString": 1, "isPrototypeOf": 2},
    )
    runtime.object_prototype = runtime.new_object(hc_object_prototype)

    hc_function_prototype = registry.create_root(
        "builtin",
        "builtin:Function.prototype",
        prototype=runtime.object_prototype,
        layout={"call": 0, "apply": 1, "bind": 2},
    )
    runtime.function_prototype = runtime.new_object(hc_function_prototype)

    runtime.function_hc = registry.create_root(
        "builtin",
        "builtin:Function",
        prototype=runtime.function_prototype,
        layout={"prototype": 0, "name": 1, "length": 2},
    )
    runtime.native_function_hc = runtime.function_hc

    runtime.prototype_root_hc = registry.create_root(
        "builtin",
        "builtin:PrototypeRoot",
        prototype=runtime.object_prototype,
        layout={"constructor": 0},
    )

    runtime.empty_object_hc = registry.create_root(
        "builtin",
        "builtin:EmptyObject",
        prototype=runtime.object_prototype,
        layout={},
    )

    array_methods = [
        "push",
        "pop",
        "shift",
        "unshift",
        "join",
        "indexOf",
        "lastIndexOf",
        "slice",
        "concat",
        "forEach",
        "map",
        "filter",
        "reduce",
        "reverse",
        "some",
        "every",
        "find",
        "sort",
    ]
    hc_array_prototype = registry.create_root(
        "builtin",
        "builtin:Array.prototype",
        prototype=runtime.object_prototype,
        layout={name: index for index, name in enumerate(array_methods)},
    )
    runtime.array_prototype = runtime.new_object(hc_array_prototype)

    runtime.array_hc = registry.create_root(
        "builtin",
        ARRAY_ROOT_KEY,
        prototype=runtime.array_prototype,
        layout={},
    )

    hc_error_prototype = registry.create_root(
        "builtin",
        "builtin:Error.prototype",
        prototype=runtime.object_prototype,
        layout={"name": 0, "toString": 1},
    )
    runtime.error_prototype = runtime.new_object(hc_error_prototype)

    math_members = [
        "abs",
        "floor",
        "ceil",
        "round",
        "sqrt",
        "pow",
        "min",
        "max",
        "random",
        "PI",
        "E",
        "log",
        "exp",
        "sin",
        "cos",
        "atan2",
        "trunc",
        "sign",
    ]
    hc_math = registry.create_root(
        "builtin",
        "builtin:Math",
        prototype=runtime.object_prototype,
        layout={name: index for index, name in enumerate(math_members)},
    )

    hc_json = registry.create_root(
        "builtin",
        "builtin:JSON",
        prototype=runtime.object_prototype,
        layout={"stringify": 0, "parse": 1},
    )

    hc_console = registry.create_root(
        "builtin",
        "builtin:console",
        prototype=runtime.object_prototype,
        layout={"log": 0, "warn": 1, "error": 2},
    )

    hc_global = registry.create_root(
        "builtin",
        "builtin:global",
        prototype=runtime.object_prototype,
        layout={name: index for index, name in enumerate(GLOBAL_LAYOUT)},
    )

    # --- native helpers -----------------------------------------------------

    def native(name: str, fn, prototype: JSObject | None = None, ctor: bool = False, arity: int = 0) -> JSFunction:
        return runtime.new_native_function(
            name, fn, prototype=prototype, native_ctor=ctor, arity=arity
        )

    # --- Object -----------------------------------------------------------------

    def object_ctor(vm: "VM", this: object, args: list) -> object:
        if args and isinstance(args[0], JSObject):
            return args[0]
        return vm.runtime.new_object()

    object_fn = native("Object", object_ctor, prototype=runtime.object_prototype, ctor=True, arity=1)

    def object_keys(vm: "VM", this: object, args: list) -> object:
        target = args[0] if args else UNDEFINED
        if not isinstance(target, JSObject):
            raise JSLTypeError("Object.keys called on non-object")
        names = target.own_property_names()
        vm.charge_native(len(names))
        return vm.runtime.new_array([str(name) for name in names])

    def object_assign(vm: "VM", this: object, args: list) -> object:
        if not args or not isinstance(args[0], JSObject):
            raise JSLTypeError("Object.assign target must be an object")
        target = args[0]
        for source in args[1:]:
            if not isinstance(source, JSObject):
                continue
            names = source.own_property_names()
            vm.charge_native(len(names))
            for name in names:
                value = vm.get_property_slow(source, name)
                vm.set_property_native(target, name, value, "native:Object.assign")
        return target

    # Extend Object's function layout with the statics via the normal
    # transition machinery (stable native site keys).
    def object_get_prototype_of(vm: "VM", this: object, args: list) -> object:
        target = args[0] if args else UNDEFINED
        if not isinstance(target, JSObject):
            raise JSLTypeError("Object.getPrototypeOf called on non-object")
        prototype = target.hidden_class.prototype
        return prototype if prototype is not None else NULL

    _object_create_counter = [0]

    def object_create(vm: "VM", this: object, args: list) -> object:
        """Object.create(proto): a fresh object with the given prototype.

        Each call site sequence gets a deterministic creation key (a per-run
        counter), so RIC can validate these roots across executions of a
        deterministic program."""
        prototype_arg = args[0] if args else UNDEFINED
        if prototype_arg is NULL:
            prototype = None
        elif isinstance(prototype_arg, JSObject):
            prototype = prototype_arg
        else:
            raise JSLTypeError("Object prototype may only be an Object or null")
        count = _object_create_counter[0]
        _object_create_counter[0] += 1
        hc = vm.runtime.hidden_classes.create_root(
            creation_kind="ctor",
            creation_key=f"ctor:Object.create:{count}",
            prototype=prototype,
        )
        vm.charge_native()
        return vm.runtime.new_object(hc)

    _set_native_member(runtime, object_fn, "keys", native("keys", object_keys, arity=1))
    _set_native_member(runtime, object_fn, "assign", native("assign", object_assign, arity=2))
    _set_native_member(
        runtime,
        object_fn,
        "getPrototypeOf",
        native("getPrototypeOf", object_get_prototype_of, arity=1),
    )
    _set_native_member(runtime, object_fn, "create", native("create", object_create, arity=1))

    # --- Object.prototype methods ---------------------------------------------

    def has_own_property(vm: "VM", this: object, args: list) -> object:
        if not isinstance(this, JSObject):
            return False
        key = to_property_key(args[0]) if args else "undefined"
        vm.charge_native()
        if isinstance(this, JSArray):
            index = _array_index(key)
            if index is not None:
                return 0 <= index < len(this.array_elements)
        if this.in_dictionary_mode:
            assert this.dict_properties is not None
            return key in this.dict_properties
        if key in this.hidden_class.layout:
            return True
        if this.elements is not None:
            index = _array_index(key)
            if index is not None:
                return index in this.elements
        return False

    def object_to_string(vm: "VM", this: object, args: list) -> object:
        return to_string(this)

    def is_prototype_of(vm: "VM", this: object, args: list) -> object:
        if not args or not isinstance(args[0], JSObject) or not isinstance(this, JSObject):
            return False
        current = args[0].hidden_class.prototype
        while current is not None:
            if current is this:
                return True
            current = current.hidden_class.prototype
        return False

    runtime.object_prototype.slots[0] = native("hasOwnProperty", has_own_property, arity=1)
    runtime.object_prototype.slots[1] = native("toString", object_to_string)
    runtime.object_prototype.slots[2] = native("isPrototypeOf", is_prototype_of, arity=1)

    # --- Function.prototype methods ------------------------------------------

    def function_call(vm: "VM", this: object, args: list) -> object:
        if not isinstance(this, JSFunction):
            raise JSLTypeError("Function.prototype.call on non-function")
        bound_this = args[0] if args else UNDEFINED
        return vm.call_value(this, bound_this, list(args[1:]))

    def function_apply(vm: "VM", this: object, args: list) -> object:
        if not isinstance(this, JSFunction):
            raise JSLTypeError("Function.prototype.apply on non-function")
        bound_this = args[0] if args else UNDEFINED
        call_args: list = []
        if len(args) > 1 and isinstance(args[1], JSArray):
            call_args = list(args[1].array_elements)
        return vm.call_value(this, bound_this, call_args)

    def function_bind(vm: "VM", this: object, args: list) -> object:
        if not isinstance(this, JSFunction):
            raise JSLTypeError("Function.prototype.bind on non-function")
        target = this
        bound_this = args[0] if args else UNDEFINED
        bound_args = list(args[1:])

        def bound(vm2: "VM", _ignored_this: object, call_args: list) -> object:
            return vm2.call_value(target, bound_this, bound_args + list(call_args))

        return vm.runtime.new_native_function(
            f"bound {target.fn_name}", bound, arity=0
        )

    runtime.function_prototype.slots[0] = native("call", function_call, arity=1)
    runtime.function_prototype.slots[1] = native("apply", function_apply, arity=2)
    runtime.function_prototype.slots[2] = native("bind", function_bind, arity=1)

    # --- Array ------------------------------------------------------------------

    def array_ctor(vm: "VM", this: object, args: list) -> object:
        if len(args) == 1 and isinstance(args[0], float):
            array = vm.runtime.new_array()
            array.set_length(int(args[0]))
            return array
        return vm.runtime.new_array(list(args))

    array_fn = native("Array", array_ctor, prototype=runtime.array_prototype, ctor=True, arity=1)

    def array_is_array(vm: "VM", this: object, args: list) -> object:
        return bool(args) and isinstance(args[0], JSArray)

    _set_native_member(runtime, array_fn, "isArray", native("isArray", array_is_array, arity=1))

    proto = runtime.array_prototype

    def _require_array(this: object, operation: str) -> JSArray:
        if not isinstance(this, JSArray):
            raise JSLTypeError(f"Array.prototype.{operation} called on non-array")
        return this

    def array_push(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "push")
        vm.charge_native(len(args))
        array.array_elements.extend(args)
        return array.length

    def array_pop(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "pop")
        vm.charge_native()
        if not array.array_elements:
            return UNDEFINED
        return array.array_elements.pop()

    def array_shift(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "shift")
        vm.charge_native(len(array.array_elements))
        if not array.array_elements:
            return UNDEFINED
        return array.array_elements.pop(0)

    def array_unshift(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "unshift")
        vm.charge_native(len(array.array_elements))
        array.array_elements[0:0] = args
        return array.length

    def array_join(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "join")
        separator = to_string(args[0]) if args else ","
        vm.charge_native(len(array.array_elements))
        return separator.join(
            "" if element is UNDEFINED or element is NULL else to_string(element)
            for element in array.array_elements
        )

    def array_index_of(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "indexOf")
        needle = args[0] if args else UNDEFINED
        vm.charge_native(len(array.array_elements))
        from repro.runtime.values import strict_equals

        for index, element in enumerate(array.array_elements):
            if strict_equals(element, needle):
                return float(index)
        return -1.0

    def array_slice(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "slice")
        length = len(array.array_elements)
        start = int(to_number(args[0])) if args else 0
        end = int(to_number(args[1])) if len(args) > 1 and args[1] is not UNDEFINED else length
        if start < 0:
            start += length
        if end < 0:
            end += length
        start = max(0, min(start, length))
        end = max(0, min(end, length))
        vm.charge_native(max(0, end - start))
        return vm.runtime.new_array(array.array_elements[start:end])

    def array_concat(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "concat")
        elements = list(array.array_elements)
        for arg in args:
            if isinstance(arg, JSArray):
                elements.extend(arg.array_elements)
            else:
                elements.append(arg)
        vm.charge_native(len(elements))
        return vm.runtime.new_array(elements)

    def array_for_each(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "forEach")
        callback = args[0] if args else UNDEFINED
        if not isinstance(callback, JSFunction):
            raise JSLTypeError("forEach callback is not a function")
        vm.charge_native(len(array.array_elements))
        for index, element in enumerate(list(array.array_elements)):
            vm.call_value(callback, UNDEFINED, [element, float(index), array])
        return UNDEFINED

    def array_map(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "map")
        callback = args[0] if args else UNDEFINED
        if not isinstance(callback, JSFunction):
            raise JSLTypeError("map callback is not a function")
        vm.charge_native(len(array.array_elements))
        result = [
            vm.call_value(callback, UNDEFINED, [element, float(index), array])
            for index, element in enumerate(list(array.array_elements))
        ]
        return vm.runtime.new_array(result)

    def array_filter(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "filter")
        callback = args[0] if args else UNDEFINED
        if not isinstance(callback, JSFunction):
            raise JSLTypeError("filter callback is not a function")
        vm.charge_native(len(array.array_elements))
        result = [
            element
            for index, element in enumerate(list(array.array_elements))
            if to_boolean(
                vm.call_value(callback, UNDEFINED, [element, float(index), array])
            )
        ]
        return vm.runtime.new_array(result)

    def array_reduce(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "reduce")
        callback = args[0] if args else UNDEFINED
        if not isinstance(callback, JSFunction):
            raise JSLTypeError("reduce callback is not a function")
        elements = list(array.array_elements)
        vm.charge_native(len(elements))
        if len(args) > 1:
            accumulator = args[1]
            start = 0
        else:
            if not elements:
                raise JSLTypeError("reduce of empty array with no initial value")
            accumulator = elements[0]
            start = 1
        for index in range(start, len(elements)):
            accumulator = vm.call_value(
                callback, UNDEFINED, [accumulator, elements[index], float(index), array]
            )
        return accumulator

    def array_reverse(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "reverse")
        vm.charge_native(len(array.array_elements))
        array.array_elements.reverse()
        return array

    def array_last_index_of(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "lastIndexOf")
        needle = args[0] if args else UNDEFINED
        vm.charge_native(len(array.array_elements))
        from repro.runtime.values import strict_equals

        for index in range(len(array.array_elements) - 1, -1, -1):
            if strict_equals(array.array_elements[index], needle):
                return float(index)
        return -1.0

    def array_some(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "some")
        callback = args[0] if args else UNDEFINED
        if not isinstance(callback, JSFunction):
            raise JSLTypeError("some callback is not a function")
        vm.charge_native(len(array.array_elements))
        for index, element in enumerate(list(array.array_elements)):
            if to_boolean(vm.call_value(callback, UNDEFINED, [element, float(index), array])):
                return True
        return False

    def array_every(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "every")
        callback = args[0] if args else UNDEFINED
        if not isinstance(callback, JSFunction):
            raise JSLTypeError("every callback is not a function")
        vm.charge_native(len(array.array_elements))
        for index, element in enumerate(list(array.array_elements)):
            if not to_boolean(vm.call_value(callback, UNDEFINED, [element, float(index), array])):
                return False
        return True

    def array_find(vm: "VM", this: object, args: list) -> object:
        array = _require_array(this, "find")
        callback = args[0] if args else UNDEFINED
        if not isinstance(callback, JSFunction):
            raise JSLTypeError("find callback is not a function")
        vm.charge_native(len(array.array_elements))
        for index, element in enumerate(list(array.array_elements)):
            if to_boolean(vm.call_value(callback, UNDEFINED, [element, float(index), array])):
                return element
        return UNDEFINED

    def array_sort(vm: "VM", this: object, args: list) -> object:
        """In-place sort: default JS string ordering, or a comparator."""
        import functools

        array = _require_array(this, "sort")
        comparator = args[0] if args else UNDEFINED
        vm.charge_native(len(array.array_elements) * 2)
        if isinstance(comparator, JSFunction):
            def compare(a: object, b: object) -> int:
                result = to_number(vm.call_value(comparator, UNDEFINED, [a, b]))
                if result != result:  # NaN -> treat as equal (JS impl-defined)
                    return 0
                return -1 if result < 0 else (1 if result > 0 else 0)

            array.array_elements.sort(key=functools.cmp_to_key(compare))
        else:
            # Default sort compares ToString of elements; undefined sorts last.
            def default_key(value: object):
                return (value is UNDEFINED, to_string(value))

            array.array_elements.sort(key=default_key)
        return array

    # Install by layout name (never positionally — the layout is the truth).
    for name, fn in [
        ("push", array_push),
        ("pop", array_pop),
        ("shift", array_shift),
        ("unshift", array_unshift),
        ("join", array_join),
        ("indexOf", array_index_of),
        ("lastIndexOf", array_last_index_of),
        ("slice", array_slice),
        ("concat", array_concat),
        ("forEach", array_for_each),
        ("map", array_map),
        ("filter", array_filter),
        ("reduce", array_reduce),
        ("reverse", array_reverse),
        ("some", array_some),
        ("every", array_every),
        ("find", array_find),
        ("sort", array_sort),
    ]:
        proto.slots[hc_array_prototype.layout[name]] = native(name, fn, arity=1)

    # --- String / Number --------------------------------------------------------

    def string_ctor(vm: "VM", this: object, args: list) -> object:
        return to_string(args[0]) if args else ""

    string_fn = native("String", string_ctor, ctor=True, arity=1)

    def string_from_char_code(vm: "VM", this: object, args: list) -> object:
        return "".join(chr(int(to_number(arg))) for arg in args)

    _set_native_member(
        runtime, string_fn, "fromCharCode", native("fromCharCode", string_from_char_code, arity=1)
    )

    def number_ctor(vm: "VM", this: object, args: list) -> object:
        return to_number(args[0]) if args else 0.0

    number_fn = native("Number", number_ctor, ctor=True, arity=1)

    def number_is_integer(vm: "VM", this: object, args: list) -> object:
        value = args[0] if args else UNDEFINED
        return (
            isinstance(value, float)
            and not isinstance(value, bool)
            and math.isfinite(value)
            and value == int(value)
        )

    _set_native_member(
        runtime, number_fn, "isInteger", native("isInteger", number_is_integer, arity=1)
    )

    # --- Math ---------------------------------------------------------------------

    math_object = runtime.new_object(hc_math)

    def math_unary(name: str, fn) -> JSFunction:
        def impl(vm: "VM", this: object, args: list) -> object:
            vm.charge_native()
            return float(fn(to_number(args[0]) if args else float("nan")))

        return native(name, impl, arity=1)

    def math_pow(vm: "VM", this: object, args: list) -> object:
        vm.charge_native()
        base = to_number(args[0]) if args else float("nan")
        exponent = to_number(args[1]) if len(args) > 1 else float("nan")
        return float(base**exponent)

    def math_min(vm: "VM", this: object, args: list) -> object:
        vm.charge_native(len(args))
        numbers = [to_number(arg) for arg in args]
        return min(numbers) if numbers else float("inf")

    def math_max(vm: "VM", this: object, args: list) -> object:
        vm.charge_native(len(args))
        numbers = [to_number(arg) for arg in args]
        return max(numbers) if numbers else float("-inf")

    def math_random(vm: "VM", this: object, args: list) -> object:
        return vm.runtime.rng.random()

    def _js_round(value: float) -> float:
        return math.floor(value + 0.5)

    math_object.slots[0] = math_unary("abs", abs)
    math_object.slots[1] = math_unary("floor", math.floor)
    math_object.slots[2] = math_unary("ceil", math.ceil)
    math_object.slots[3] = math_unary("round", _js_round)
    math_object.slots[4] = math_unary("sqrt", lambda value: math.sqrt(value) if value >= 0 else float("nan"))
    math_object.slots[5] = native("pow", math_pow, arity=2)
    math_object.slots[6] = native("min", math_min, arity=2)
    math_object.slots[7] = native("max", math_max, arity=2)
    math_object.slots[8] = native("random", math_random)
    math_object.slots[9] = math.pi
    math_object.slots[10] = math.e

    def math_atan2(vm: "VM", this: object, args: list) -> object:
        vm.charge_native()
        y = to_number(args[0]) if args else float("nan")
        x = to_number(args[1]) if len(args) > 1 else float("nan")
        return math.atan2(y, x)

    def _js_sign(value: float) -> float:
        if value != value:
            return float("nan")
        if value > 0:
            return 1.0
        if value < 0:
            return -1.0
        return value  # preserves +-0

    math_object.slots[11] = math_unary(
        "log", lambda v: math.log(v) if v > 0 else (float("-inf") if v == 0 else float("nan"))
    )
    math_object.slots[12] = math_unary("exp", math.exp)
    math_object.slots[13] = math_unary("sin", math.sin)
    math_object.slots[14] = math_unary("cos", math.cos)
    math_object.slots[15] = native("atan2", math_atan2, arity=2)
    math_object.slots[16] = math_unary("trunc", math.trunc)
    # sign must preserve NaN, so it bypasses the float() wrap of math_unary.

    def math_sign(vm: "VM", this: object, args: list) -> object:
        vm.charge_native()
        return _js_sign(to_number(args[0]) if args else float("nan"))

    math_object.slots[17] = native("sign", math_sign, arity=1)

    # --- JSON -----------------------------------------------------------------------

    def json_stringify(vm: "VM", this: object, args: list) -> object:
        value = args[0] if args else UNDEFINED
        result = _stringify(vm, value)
        return result if result is not None else UNDEFINED

    def json_parse(vm: "VM", this: object, args: list) -> object:
        text = to_string(args[0]) if args else ""
        try:
            data = _json.loads(text)
        except _json.JSONDecodeError as error:
            raise JSLTypeError(f"JSON.parse: {error}") from error
        return _revive(vm, data)

    json_object = runtime.new_object(hc_json)
    json_object.slots[0] = native("stringify", json_stringify, arity=1)
    json_object.slots[1] = native("parse", json_parse, arity=1)

    # --- console --------------------------------------------------------------------

    def make_console_writer(level: str):
        def impl(vm: "VM", this: object, args: list) -> object:
            vm.charge_native(len(args))
            message = " ".join(to_string(arg) for arg in args)
            vm.runtime.console_output.append(
                message if level == "log" else f"[{level}] {message}"
            )
            return UNDEFINED

        return impl

    console_object = runtime.new_object(hc_console)
    console_object.slots[0] = native("log", make_console_writer("log"), arity=1)
    console_object.slots[1] = native("warn", make_console_writer("warn"), arity=1)
    console_object.slots[2] = native("error", make_console_writer("error"), arity=1)

    # --- Date -----------------------------------------------------------------------

    def date_ctor(vm: "VM", this: object, args: list) -> object:
        if isinstance(this, JSObject):
            vm.set_property_native(
                this, "time", vm.runtime_time_ms(), "native:Date"
            )
            return UNDEFINED
        return to_string(vm.runtime_time_ms())

    date_fn = native("Date", date_ctor, prototype=runtime.object_prototype, ctor=True)

    def date_now(vm: "VM", this: object, args: list) -> object:
        return vm.runtime_time_ms()

    _set_native_member(runtime, date_fn, "now", native("now", date_now))

    # --- Errors ----------------------------------------------------------------------

    def error_to_string(vm: "VM", this: object, args: list) -> object:
        if not isinstance(this, JSObject):
            return "Error"
        name = vm.get_property_slow(this, "name")
        message = vm.get_property_slow(this, "message")
        name_text = to_string(name) if name is not UNDEFINED else "Error"
        if message is UNDEFINED:
            return name_text
        return f"{name_text}: {to_string(message)}"

    runtime.error_prototype.slots[0] = "Error"
    runtime.error_prototype.slots[1] = native("toString", error_to_string)

    def make_error_ctor(name: str) -> JSFunction:
        def impl(vm: "VM", this: object, args: list) -> object:
            if isinstance(this, JSObject):
                message = to_string(args[0]) if args else ""
                vm.set_property_native(this, "message", message, f"native:{name}")
                if name != "Error":
                    vm.set_property_native(this, "name", name, f"native:{name}")
                return UNDEFINED
            raise JSLTypeError(f"{name} must be called with new")

        return native(name, impl, prototype=runtime.error_prototype, ctor=True, arity=1)

    error_fn = make_error_ctor("Error")
    type_error_fn = make_error_ctor("TypeError")
    range_error_fn = make_error_ctor("RangeError")

    # --- free functions ----------------------------------------------------------------

    def global_is_nan(vm: "VM", this: object, args: list) -> object:
        return math.isnan(to_number(args[0]) if args else float("nan"))

    def global_is_finite(vm: "VM", this: object, args: list) -> object:
        return math.isfinite(to_number(args[0]) if args else float("nan"))

    def global_parse_int(vm: "VM", this: object, args: list) -> object:
        text = to_string(args[0]).strip() if args else ""
        radix = int(to_number(args[1])) if len(args) > 1 and args[1] is not UNDEFINED else 10
        if radix == 0:
            radix = 10
        sign = 1
        if text[:1] in "+-":
            if text[0] == "-":
                sign = -1
            text = text[1:]
        if radix == 16 and text[:2].lower() == "0x":
            text = text[2:]
        digits = ""
        valid = "0123456789abcdefghijklmnopqrstuvwxyz"[:radix]
        for char in text.lower():
            if char not in valid:
                break
            digits += char
        if not digits:
            return float("nan")
        return float(sign * int(digits, radix))

    def global_parse_float(vm: "VM", this: object, args: list) -> object:
        text = to_string(args[0]).strip() if args else ""
        matched = ""
        seen_dot = seen_exp = False
        for index, char in enumerate(text):
            if char.isdigit():
                matched += char
            elif char == "." and not seen_dot and not seen_exp:
                matched += char
                seen_dot = True
            elif char in "eE" and matched and not seen_exp:
                matched += char
                seen_exp = True
            elif char in "+-" and (index == 0 or matched[-1:] in "eE"):
                matched += char
            else:
                break
        try:
            return float(matched)
        except ValueError:
            return float("nan")

    # --- primitive methods (strings / numbers) -------------------------------------------

    def string_method(name: str, impl_fn) -> None:
        def impl(vm: "VM", this: object, args: list) -> object:
            vm.charge_native()
            return impl_fn(vm, to_string(this), args)

        runtime.string_methods[name] = native(name, impl, arity=1)

    string_method("charAt", lambda vm, s, a: s[int(to_number(a[0]))] if a and 0 <= int(to_number(a[0])) < len(s) else "")
    string_method("charCodeAt", lambda vm, s, a: float(ord(s[int(to_number(a[0]))])) if a and 0 <= int(to_number(a[0])) < len(s) else float("nan"))
    string_method(
        "indexOf",
        lambda vm, s, a: float(
            s.find(
                to_string(a[0]),
                int(to_number(a[1])) if len(a) > 1 and a[1] is not UNDEFINED else 0,
            )
        )
        if a
        else -1.0,
    )
    string_method("lastIndexOf", lambda vm, s, a: float(s.rfind(to_string(a[0]))) if a else -1.0)
    string_method("toUpperCase", lambda vm, s, a: s.upper())
    string_method("toLowerCase", lambda vm, s, a: s.lower())
    string_method("trim", lambda vm, s, a: s.strip())
    string_method("toString", lambda vm, s, a: s)

    def _string_slice(vm: "VM", s: str, args: list) -> str:
        start = int(to_number(args[0])) if args else 0
        end = int(to_number(args[1])) if len(args) > 1 and args[1] is not UNDEFINED else len(s)
        if start < 0:
            start += len(s)
        if end < 0:
            end += len(s)
        start = max(0, min(start, len(s)))
        end = max(0, min(end, len(s)))
        return s[start:end] if start < end else ""

    string_method("slice", _string_slice)

    def _string_substring(vm: "VM", s: str, args: list) -> str:
        start = int(to_number(args[0])) if args else 0
        end = int(to_number(args[1])) if len(args) > 1 and args[1] is not UNDEFINED else len(s)
        start = max(0, min(start, len(s)))
        end = max(0, min(end, len(s)))
        if start > end:
            start, end = end, start
        return s[start:end]

    string_method("substring", _string_substring)

    def _string_split(vm: "VM", s: str, args: list) -> object:
        if not args or args[0] is UNDEFINED:
            return vm.runtime.new_array([s])
        separator = to_string(args[0])
        parts = list(s) if separator == "" else s.split(separator)
        return vm.runtime.new_array(list(parts))

    string_method("split", _string_split)
    string_method(
        "replace",
        lambda vm, s, a: s.replace(to_string(a[0]), to_string(a[1]), 1) if len(a) > 1 else s,
    )
    string_method("concat", lambda vm, s, a: s + "".join(to_string(x) for x in a))
    string_method("startsWith", lambda vm, s, a: s.startswith(to_string(a[0])) if a else False)
    string_method("endsWith", lambda vm, s, a: s.endswith(to_string(a[0])) if a else False)
    string_method("includes", lambda vm, s, a: to_string(a[0]) in s if a else False)
    string_method(
        "repeat",
        lambda vm, s, a: s * max(0, int(to_number(a[0]))) if a else "",
    )
    string_method(
        "padStart",
        lambda vm, s, a: s.rjust(
            int(to_number(a[0])) if a else 0,
            (to_string(a[1]) or " ")[0] if len(a) > 1 and a[1] is not UNDEFINED else " ",
        ),
    )
    string_method(
        "padEnd",
        lambda vm, s, a: s.ljust(
            int(to_number(a[0])) if a else 0,
            (to_string(a[1]) or " ")[0] if len(a) > 1 and a[1] is not UNDEFINED else " ",
        ),
    )

    def number_method(name: str, impl_fn) -> None:
        def impl(vm: "VM", this: object, args: list) -> object:
            vm.charge_native()
            return impl_fn(vm, to_number(this), args)

        runtime.number_methods[name] = native(name, impl, arity=1)

    number_method("toString", lambda vm, n, a: number_to_string(n))
    number_method(
        "toFixed",
        lambda vm, n, a: f"{n:.{int(to_number(a[0])) if a else 0}f}",
    )

    # --- wire the global object ---------------------------------------------------------

    global_object = runtime.new_object(hc_global)
    runtime.global_object = global_object
    values: dict[str, object] = {
        "globalThis": global_object,
        "Object": object_fn,
        "Function": native("Function", lambda vm, this, args: UNDEFINED),
        "Array": array_fn,
        "String": string_fn,
        "Number": number_fn,
        "Math": math_object,
        "JSON": json_object,
        "console": console_object,
        "Date": date_fn,
        "Error": error_fn,
        "TypeError": type_error_fn,
        "RangeError": range_error_fn,
        "isNaN": native("isNaN", global_is_nan, arity=1),
        "isFinite": native("isFinite", global_is_finite, arity=1),
        "parseInt": native("parseInt", global_parse_int, arity=2),
        "parseFloat": native("parseFloat", global_parse_float, arity=2),
        "NaN": float("nan"),
        "Infinity": float("inf"),
    }
    for name, index in hc_global.layout.items():
        global_object.slots[index] = values[name]


def _set_native_member(
    runtime: Runtime, obj: JSObject, name: str, value: object
) -> None:
    """Attach a static member to a builtin function object via the normal
    transition machinery (stable ``native:`` site keys)."""
    runtime.define_own_property(obj, name, value, f"native:member:{name}")


def _array_index(key: str) -> int | None:
    if key.isdigit() and (key == "0" or not key.startswith("0")):
        return int(key)
    return None


def _stringify(vm: "VM", value: object, depth: int = 0) -> str | None:
    """Minimal JSON.stringify over guest values; returns None for
    undefined/functions (JSON semantics)."""
    if depth > 64:
        raise JSLTypeError("JSON.stringify: structure too deep")
    if value is UNDEFINED:
        return None
    if value is NULL:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return number_to_string(value)
    if isinstance(value, str):
        return _json.dumps(value)
    if isinstance(value, JSFunction):
        return None
    if isinstance(value, JSArray):
        parts = [
            _stringify(vm, element, depth + 1) or "null"
            for element in value.array_elements
        ]
        return "[" + ",".join(parts) + "]"
    if isinstance(value, JSObject):
        parts = []
        for name in value.own_property_names():
            member = vm.get_property_slow(value, name)
            text = _stringify(vm, member, depth + 1)
            if text is not None:
                parts.append(f"{_json.dumps(name)}:{text}")
        return "{" + ",".join(parts) + "}"
    return None


def _revive(vm: "VM", data: object) -> object:
    """Convert parsed-JSON Python data into guest values."""
    if data is None:
        return NULL
    if isinstance(data, bool):
        return data
    if isinstance(data, (int, float)):
        return float(data)
    if isinstance(data, str):
        return data
    if isinstance(data, list):
        return vm.runtime.new_array([_revive(vm, item) for item in data])
    assert isinstance(data, dict)
    obj = vm.runtime.new_object()
    for key, item in data.items():
        vm.set_property_native(obj, str(key), _revive(vm, item), "native:JSON.parse")
    return obj
