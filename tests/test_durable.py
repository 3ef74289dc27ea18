"""Crash battery for every user of :mod:`repro.durable`.

Append logs (DSE cache, stream sink, QoR dataset) are cut at every byte
offset of their last three records, reopened, and appended to once
more: every record whose line ended before the cut, and the new record,
must load, and the file must parse with no corrupt line.  Atomic JSON
documents (DSE checkpoint, stream checkpoint, serve drain snapshot) are
left with a stray ``.tmp`` of every length: load returns the previous
document, never garbage, and the next save succeeds.
"""

import copy
import json
import os
import stat

import pytest

from repro.dataset import DatasetRecord, DatasetWriter, read_records
from repro.dse import (
    CacheStore,
    CheckpointStore,
    ParallelEvaluator,
    S2FAEngine,
    build_space,
)
from repro.dse.evaluator import error_result
from repro.errors import ExplorationInterrupted
from repro.s2fa import S2FASession
from repro.serve.daemon import ServeDaemon
from repro.streaming import JSONLSink, StreamCheckpointStore

RECORDS = 5
DIGEST = "d" * 24

# ----------------------------------------------------------------------
# Append logs
# ----------------------------------------------------------------------


class CacheLog:
    result = error_result("crash battery")

    def path(self, tmp_path):
        return tmp_path / f"{DIGEST}.jsonl"

    def append(self, path, key):
        CacheStore(path.parent).put(DIGEST, key, 1.0, self.result)

    def load(self, path, keys):
        store = CacheStore(path.parent)
        found = {k for k in keys if store.contains(DIGEST, k)}
        assert store.corrupt_lines == 0
        assert store.size(DIGEST) == len(found)
        return found


class SinkLog:
    def path(self, tmp_path):
        return tmp_path / "sink.jsonl"

    def append(self, path, key):
        sink = JSONLSink(path)
        sink.emit(int(key), 0, int(key), [key, {"k": key}])
        sink.flush_batch()
        sink.close()

    def load(self, path, keys):
        sink = JSONLSink(path)          # raises on any corrupt line
        sink.close()
        return {str(batch) for batch, _ in sink.keys()}


class DatasetLog:
    def path(self, tmp_path):
        return tmp_path / "ds.jsonl"

    def append(self, path, key):
        with DatasetWriter(path, append=True) as writer:
            writer.write(DatasetRecord(
                kernel="k", digest=DIGEST, point={"p": key},
                features=(1.0, 2.5), feature_schema=1, feasible=True,
                qor=3.0, cycles=3.0, minutes=1.0, estimator_version=1))

    def load(self, path, keys):
        records, skipped = read_records(path, strict=True)
        assert skipped == 0
        return {r.point["p"] for r in records}


def _assert_parses(path):
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    for line in raw.splitlines():
        json.loads(line)


@pytest.mark.parametrize("log", [CacheLog(), SinkLog(), DatasetLog()],
                         ids=["cache", "sink", "dataset"])
def test_append_log_survives_a_cut_at_every_byte(tmp_path, log):
    keys = [str(i) for i in range(RECORDS)]
    path = log.path(tmp_path)
    for key in keys:
        log.append(path, key)
    data = path.read_bytes()
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    assert len(ends) == RECORDS
    new = "99"
    for cut in range(ends[-4], len(data) + 1):
        path.write_bytes(data[:cut])
        log.append(path, new)
        found = log.load(path, keys + [new])
        landed = {keys[i] for i, end in enumerate(ends) if end <= cut}
        assert landed | {new} <= found, cut
        assert found <= set(keys) | {new}, cut
        _assert_parses(path)


# ----------------------------------------------------------------------
# Atomic JSON documents
# ----------------------------------------------------------------------

KERNEL = """
class Inc extends Accelerator[Int, Int] {
  val id: String = "inc"
  def call(in: Int): Int = in + 1
}
"""


@pytest.fixture(scope="module")
def dse_checkpoint(tmp_path_factory):
    compiled = S2FASession().compile(KERNEL)
    store = CheckpointStore(tmp_path_factory.mktemp("dse"))
    with ParallelEvaluator(compiled) as evaluator:
        engine = S2FAEngine(evaluator, build_space(compiled), seed=5,
                            time_limit_minutes=60.0,
                            checkpoint_store=store)
        engine.request_stop()
        with pytest.raises(ExplorationInterrupted):
            engine.run()
        return store.load(evaluator.kernel_digest)


class DSECheckpointDoc:
    #: the payload is ~80 KB: sweep an even sample of tmp lengths
    lengths = 256

    def __init__(self, payload):
        self.payloads = [payload, copy.deepcopy(payload)]
        self.payloads[1]["evaluator"]["evaluations"] += 1

    def target(self, tmp_path):
        return CheckpointStore(tmp_path).path(DIGEST)

    def save(self, tmp_path, generation):
        CheckpointStore(tmp_path).save(DIGEST,
                                       self.payloads[generation % 2])

    def load(self, tmp_path):
        return CheckpointStore(tmp_path).load(DIGEST)

    def expected(self, generation):
        return self.payloads[generation % 2]


class StreamCheckpointDoc:
    lengths = None

    def target(self, tmp_path):
        return StreamCheckpointStore(tmp_path).path("s")

    def payload(self, generation):
        return {"identity": {"app": "LR"}, "next_batch": generation,
                "seq": 2 * generation, "operators": [[generation]]}

    def save(self, tmp_path, generation):
        StreamCheckpointStore(tmp_path).save("s", self.payload(generation))

    def load(self, tmp_path):
        return StreamCheckpointStore(tmp_path).load(
            "s", identity={"app": "LR"})

    def expected(self, generation):
        return {"kind": "s2fa-stream-checkpoint", "version": 1,
                **self.payload(generation)}


class ServeSnapshotDoc:
    lengths = None

    def target(self, tmp_path):
        return tmp_path / "state.json"

    def save(self, tmp_path, generation):
        daemon = ServeDaemon(str(tmp_path / "s.sock"),
                             state_path=str(self.target(tmp_path)))
        daemon.core.clock.advance(float(generation))
        daemon._flush_state()

    def load(self, tmp_path):
        snapshot = json.loads(self.target(tmp_path).read_text())
        return snapshot["drained"], snapshot["virtual_now"]

    def expected(self, generation):
        return True, float(generation)


def _tmp_lengths(size, sample=None):
    """Every tmp length up to ``size``, or an even sweep of ``sample``."""
    if sample is None:
        return range(size + 1)
    return sorted({1, size - 1, size,
                   *range(0, size, max(1, size // sample))})


@pytest.mark.parametrize("kind", ["dse", "stream", "serve"])
def test_atomic_document_ignores_a_stray_tmp(tmp_path, kind, request):
    doc = {"dse": lambda: DSECheckpointDoc(
               request.getfixturevalue("dse_checkpoint")),
           "stream": StreamCheckpointDoc,
           "serve": ServeSnapshotDoc}[kind]()
    target = doc.target(tmp_path)
    tmp = target.with_name(target.name + ".tmp")
    written = {}                        # what a killed save would leave
    for generation in (1, 0):
        doc.save(tmp_path, generation)
        written[generation] = target.read_bytes()
    size = max(map(len, written.values()))
    for generation, length in enumerate(_tmp_lengths(size, doc.lengths),
                                        start=1):
        tmp.write_bytes(written[generation % 2][:length])
        assert doc.load(tmp_path) == doc.expected(generation - 1), length
        doc.save(tmp_path, generation)
        assert doc.load(tmp_path) == doc.expected(generation), length
        assert not tmp.exists()


def test_serve_flush_fsyncs_file_and_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    state = tmp_path / "state.json"
    daemon = ServeDaemon(str(tmp_path / "s.sock"), state_path=str(state))
    daemon._flush_state()
    assert json.loads(state.read_text())["drained"] is True
    assert synced == [False, True]
