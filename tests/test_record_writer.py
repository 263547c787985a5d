"""The one-pass record writer: the stored envelope text.

``envelope_text`` emits a record's canonical payload text once and
embeds it verbatim next to its checksum.  Readers are unchanged: they
parse the file and re-canonicalize the payload, so the older spaced
form still loads and any damaged byte in the payload is still caught.
"""

import hashlib
import json
import socket

import pytest

from repro.core.engine import Engine
from repro.ric import (
    RecordStore,
    envelope_text,
    load_icrecord,
    record_to_envelope,
    record_to_json,
    save_icrecord,
)

SOURCE = """
function Box(v) { this.v = v; this.tag = "box"; }
var total = 0;
for (var i = 0; i < 6; i = i + 1) {
  var b = new Box(i);
  total = total + b.v;
}
console.log(total);
"""


@pytest.fixture(scope="module")
def record():
    engine = Engine(seed=41)
    engine.run([("box.jsl", SOURCE)], name="initial")
    record = engine.extract_per_script_records()["box.jsl"]
    record.extraction_time_ms = 1.25  # a fixed float: timing-free bytes
    return record


def canonical(record) -> str:
    return json.dumps(record_to_json(record), sort_keys=True, separators=(",", ":"))


def expected_text(record, key=None) -> str:
    payload = canonical(record)
    checksum = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    head = "{" if key is None else '{"key":' + json.dumps(key) + ","
    return head + '"checksum":"' + checksum + '","record":' + payload + "}"


def store_file(directory):
    (path,) = directory.glob("*.icrecord.json")
    return path


class TestStoredText:
    def test_store_writes_the_canonical_payload_verbatim(self, record, tmp_path):
        store = RecordStore(tmp_path)
        store.put("box.jsl", SOURCE, record)
        key = RecordStore._key("box.jsl", SOURCE)
        text = store_file(tmp_path).read_text()
        assert text == expected_text(record, key)
        assert text == envelope_text(record, key)
        assert store.status()["bytes"] == len(text.encode("utf-8"))

    def test_save_icrecord_writes_the_same_form(self, record, tmp_path):
        path = tmp_path / "r.icrecord.json"
        save_icrecord(record, path)
        assert path.read_text() == expected_text(record)

    def test_text_parses_to_the_dict_envelope(self, record):
        extra = {"key": "box.jsl:abc"}
        assert json.loads(envelope_text(record, "box.jsl:abc")) == json.loads(
            json.dumps(record_to_envelope(record, extra=extra))
        )


class TestOlderSpacedForm:
    def test_store_loads_a_spaced_envelope(self, record, tmp_path):
        RecordStore(tmp_path).put("box.jsl", SOURCE, record)
        path = store_file(tmp_path)
        key = RecordStore._key("box.jsl", SOURCE)
        path.write_text(json.dumps(record_to_envelope(record, extra={"key": key})))
        assert ", " in path.read_text()
        reloaded = RecordStore(tmp_path)
        assert reloaded.load_errors == []
        assert record_to_json(reloaded.get("box.jsl", SOURCE)) == record_to_json(record)

    def test_load_icrecord_reads_a_spaced_envelope(self, record, tmp_path):
        path = tmp_path / "r.icrecord.json"
        path.write_text(json.dumps(record_to_envelope(record)))
        assert record_to_json(load_icrecord(path)) == record_to_json(record)


def test_every_byte_flip_in_the_record_part_is_quarantined(record, tmp_path):
    """One flipped bit at each byte of the stored payload text: the store
    refuses and quarantines every one (bits 0-6 keep the byte ASCII, so
    each flip reaches the JSON and checksum layers, not just UTF-8)."""
    RecordStore(tmp_path).put("box.jsl", SOURCE, record)
    path = store_file(tmp_path)
    pristine = path.read_bytes()
    start = pristine.index(b'"record":') + len(b'"record":')
    for position in range(start, len(pristine) - 1):
        damaged = bytearray(pristine)
        damaged[position] ^= 1 << (position % 7)
        path.write_bytes(bytes(damaged))
        store = RecordStore(tmp_path)
        assert len(store) == 0 and len(store.load_errors) == 1, position
        (quarantined,) = tmp_path.glob("*.corrupt*")
        quarantined.unlink()


@pytest.mark.net
@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="unix sockets required")
def test_daemon_put_then_get_returns_an_equal_record(record, tmp_path):
    from repro.server import RecordCacheDaemon, RemoteRecordStore

    records = tmp_path / "records"
    with RecordCacheDaemon(tmp_path / "ricd.sock", directory=records) as ricd:
        RemoteRecordStore(ricd.socket_path).put("box.jsl", SOURCE, record)
        served = RemoteRecordStore(ricd.socket_path).get("box.jsl", SOURCE)
    assert record_to_json(served) == record_to_json(record)
    # The daemon's write-through file is in the one-pass form...
    key = RecordStore._key("box.jsl", SOURCE)
    assert store_file(records).read_text() == expected_text(record, key)
    # ...and a restarted daemon serves it back from disk unchanged.
    with RecordCacheDaemon(tmp_path / "ricd2.sock", directory=records) as reborn:
        reloaded = RemoteRecordStore(reborn.socket_path).get("box.jsl", SOURCE)
    assert record_to_json(reloaded) == record_to_json(record)
