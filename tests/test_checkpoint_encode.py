"""``CheckpointStore.put`` serializes each checkpoint exactly once."""

from __future__ import annotations

import numpy as np

from repro.service.checkpoint import Checkpoint, CheckpointStore


def _checkpoint(interval: int) -> Checkpoint:
    state = {
        "tick": interval + 1,
        "ring": np.arange(6, dtype=float) / 7.0,
        "rng": np.random.default_rng(interval + 10).bit_generator.state,
        "nested": {"b": [1, 2.5, None], "a": True},
    }
    return Checkpoint.capture("controller", interval, state)


def test_put_encodes_once_and_files_are_the_canonical_text(tmp_path, monkeypatch):
    checkpoint = _checkpoint(3)
    expected = checkpoint.to_json() + "\n"
    calls = []
    encode = Checkpoint.to_json

    def counting_to_json(self):
        calls.append(self)
        return encode(self)

    monkeypatch.setattr(Checkpoint, "to_json", counting_to_json)
    store = CheckpointStore(tmp_path)
    stored = store.put(checkpoint)
    assert len(calls) == 1
    monkeypatch.undo()

    assert (tmp_path / "checkpoint-000003.json").read_text() == expected
    assert (tmp_path / "latest.json").read_text() == expected
    assert store.last_put_bytes == len(expected)
    assert stored == checkpoint
    assert stored.to_json() + "\n" == expected


def test_in_memory_put_reports_the_file_size():
    store = CheckpointStore()
    checkpoint = _checkpoint(-1)
    store.put(checkpoint)
    assert store.last_put_bytes == len(checkpoint.to_json()) + 1


def test_saving_a_loaded_checkpoint_round_trips(tmp_path):
    store = CheckpointStore(tmp_path)
    store.put(_checkpoint(0))
    loaded = Checkpoint.load(tmp_path / "latest.json")
    copy = loaded.save(tmp_path / "copy.json")
    assert copy.read_text() == (tmp_path / "latest.json").read_text()
