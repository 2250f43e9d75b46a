"""Fleet control plane: registry integrity, multi-tenant routing, hot
swap under live traffic, canary auto-rollback/promote.  End-to-end tests
use deliberately tiny models so the whole file runs in seconds."""

import os
import pickle

import numpy as np
import pytest

from repro.fleet import (
    CanaryPolicy,
    FleetServer,
    IntegrityError,
    ModelRegistry,
    RegistryError,
    corrupt_snapshot,
    read_snapshot_file,
)
from repro.infer import InferenceSession
from repro.quant import QuantizedSession
from repro.vit import VitalConfig, VitalModel


def _tiny_session(seed: int = 0, num_classes: int = 5,
                  max_batch: int = 8) -> InferenceSession:
    config = VitalConfig(
        image_size=12, patch_size=3, projection_dim=24, num_heads=4,
        encoder_blocks=1, encoder_mlp_units=(32, 16), head_units=(32,),
    )
    model = VitalModel(config, image_size=12, channels=3,
                       num_classes=num_classes,
                       rng=np.random.default_rng(seed))
    model.eval()
    return InferenceSession(model, max_batch=max_batch)


@pytest.fixture(scope="module")
def session_a():
    return _tiny_session(seed=0)


@pytest.fixture(scope="module")
def session_b():
    return _tiny_session(seed=1)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(42)
    return rng.standard_normal((37, 12, 12, 3)).astype(np.float32)


class TestRegistry:
    def test_publish_get_latest_resolve(self, tmp_path, session_a, session_b):
        registry = ModelRegistry(str(tmp_path / "reg"))
        assert registry.models() == []
        v1 = registry.publish("bldg-1", session_a,
                              metadata={"building": 1, "note": "baseline"})
        v2 = registry.publish("bldg-1", session_b.snapshot())
        assert (v1, v2) == (1, 2)
        assert registry.versions("bldg-1") == [1, 2]
        assert registry.latest("bldg-1") == 2
        assert registry.resolve("bldg-1") == 2

        entry = registry.get("bldg-1", 1)
        assert entry.metadata == {"building": 1, "note": "baseline"}
        assert entry.info["num_classes"] == 5
        assert entry.info["format"] == "repro.infer.session/v1"
        assert entry.bytes > 0 and len(entry.digest) == 64

        restored = registry.load_session("bldg-1", 1)
        x = np.zeros((2, 12, 12, 3), dtype=np.float32)
        np.testing.assert_array_equal(
            restored.predict_many(x), session_a.predict_many(x)
        )

    def test_pinning_steers_resolution(self, tmp_path, session_a, session_b):
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", session_b)
        assert registry.pinned("m") is None
        registry.pin("m", 1)
        assert registry.resolve("m") == 1
        assert registry.get("m").version == 1  # version-less get follows pin
        registry.unpin("m")
        assert registry.resolve("m") == 2
        with pytest.raises(KeyError):
            registry.pin("m", 99)

    def test_content_addressing_dedupes_blobs(self, tmp_path, session_a):
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("a", session_a)
        registry.publish("b", session_a)  # same payload, second model id
        stats = registry.stats()
        assert stats["versions"] == 2
        assert stats["unique_blobs"] == 1
        assert stats["deduped_versions"] == 1

    def test_quantized_snapshots_are_first_class(self, tmp_path, session_a):
        registry = ModelRegistry(str(tmp_path / "reg"))
        quantized = QuantizedSession(session_a, scheme="per_channel",
                                     mode="dequant")
        version = registry.publish("bldg-1-int8", quantized)
        entry = registry.get("bldg-1-int8", version)
        assert entry.info["quantized"] is True
        assert entry.info["scheme"] == "per_channel"
        restored = entry.load_session()
        assert isinstance(restored, QuantizedSession)
        x = np.zeros((2, 12, 12, 3), dtype=np.float32)
        np.testing.assert_array_equal(
            restored.predict_many(x), quantized.predict_many(x)
        )

    def test_errors_and_validation(self, tmp_path, session_a):
        registry = ModelRegistry(str(tmp_path / "reg"))
        with pytest.raises(KeyError, match="no versions"):
            registry.latest("ghost")
        registry.publish("m", session_a)
        with pytest.raises(KeyError, match="version 7"):
            registry.get("m", 7)
        for bad in ("", "über", "a/b", "-lead", 7):
            with pytest.raises(ValueError, match="model id"):
                registry.publish(bad, session_a)
        with pytest.raises(ValueError, match="not a restorable"):
            registry.publish("m", {"format": "bogus"})

    def test_hash_mismatch_is_rejected(self, tmp_path, session_a):
        """Registry integrity: a tampered blob must never restore."""
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        entry = registry.get("m", 1)
        blob = registry._blob_path(entry.digest)
        with open(blob, "rb") as handle:
            payload = bytearray(handle.read())
        payload[len(payload) // 2] ^= 0xFF  # flip one byte mid-payload
        with open(blob, "wb") as handle:
            handle.write(payload)
        with pytest.raises(IntegrityError, match="hashes to"):
            entry.load_snapshot()
        os.remove(blob)
        with pytest.raises(RegistryError, match="missing blob"):
            registry.load_snapshot("m", 1)

    def test_read_snapshot_file(self, tmp_path, session_a):
        path = str(tmp_path / "snap.pkl")
        with open(path, "wb") as handle:
            pickle.dump(session_a.snapshot(), handle)
        loaded = read_snapshot_file(path)
        assert loaded["format"] == "repro.infer.session/v1"
        with open(path, "wb") as handle:
            pickle.dump({"not": "a snapshot"}, handle)
        with pytest.raises(ValueError, match="not a restorable"):
            read_snapshot_file(path)


class TestFleetServer:
    def test_multi_tenant_routing(self, tmp_path, session_a, images):
        """Two buildings with different class counts from one pool; each
        model's results stay bit-identical to its own local session."""
        other = _tiny_session(seed=9, num_classes=7)
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("bldg-1", session_a)
        registry.publish("bldg-2", other)
        with FleetServer(registry, workers=2, max_delay_ms=1.0) as server:
            server.deploy("bldg-1")
            server.deploy("bldg-2")
            out_1 = server.predict_many(images, timeout=30.0, model="bldg-1")
            out_2 = server.predict_many(images, timeout=30.0, model="bldg-2")
            with pytest.raises(ValueError, match="unknown model"):
                server.submit(images[0], model="bldg-3")
            stats = server.stats()
        np.testing.assert_array_equal(out_1, session_a.predict_many(images))
        np.testing.assert_array_equal(out_2, other.predict_many(images))
        assert out_1.shape[1] == 5 and out_2.shape[1] == 7
        fleet = stats["fleet"]["models"]
        assert fleet["bldg-1"]["completed"] > 0
        assert fleet["bldg-2"]["completed"] > 0
        assert stats["routes"] == {"bldg-1": "bldg-1@v1",
                                   "bldg-2": "bldg-2@v1"}

    def test_hot_swap_under_live_traffic_loses_nothing(
        self, tmp_path, session_a, session_b, images
    ):
        """The acceptance drill: swap mid-stream, every request completes,
        post-swap traffic runs on the new version."""
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", session_b)
        with FleetServer(registry, workers=2, max_delay_ms=1.0) as server:
            server.deploy("m", 1)
            ids = []
            for index in range(30):
                ids.append(server.submit(images[index % 30][None], model="m"))
                if index == 10:
                    report = server.swap("m", 2)
            results = [server.result(i, timeout=30.0) for i in ids]
            after = server.predict_many(images, timeout=30.0, model="m")
            stats = server.stats()
        assert len(results) == 30  # zero lost — result() raised nowhere
        np.testing.assert_array_equal(after, session_b.predict_many(images))
        assert report["from_version"] == 1 and report["to_version"] == 2
        assert report["swap_latency_ms"] > 0
        assert stats["fleet"]["swaps"] == [report]
        assert server.deployments() == {"m": {"key": "m@v2", "version": 2}}
        # Per-model routing counts: traffic landed on both versions.
        assert stats["route_stats"]["m@v2"]["completed"] > 0
        assert stats["requests"]["failed"] == 0

    def test_swap_guards(self, tmp_path, session_a, session_b):
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", session_b)
        incompatible = _tiny_session(seed=3, num_classes=9)
        with FleetServer(registry, workers=1, max_delay_ms=0.5) as server:
            with pytest.raises(ValueError, match="not deployed"):
                server.swap("m", 2)
            server.deploy("m", 1)
            with pytest.raises(ValueError, match="already serving"):
                server.swap("m", 1)
            with pytest.raises(ValueError, match="incompatible"):
                server.swap("m", snapshot=incompatible.snapshot(), version=99)
            server.start_canary("m", 2, fraction=0.5, min_requests=10 ** 6)
            with pytest.raises(RuntimeError, match="active canary"):
                server.swap("m", 2)
            with pytest.raises(RuntimeError, match="already has a canary"):
                server.start_canary("m", 2)
            server.decide_canary("m", "rollback")

    def test_broken_canary_rolls_back_without_client_failures(
        self, tmp_path, session_a, images
    ):
        """The canary acceptance drill: a version that restores fine but
        fails at predict is auto-rolled-back; every client request still
        succeeds (broken batches retry on the incumbent)."""
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", corrupt_snapshot(session_a.snapshot()))
        with FleetServer(registry, workers=2, max_delay_ms=0.5) as server:
            server.deploy("m", 1)
            server.start_canary("m", 2, fraction=0.5, min_requests=12,
                                max_failures=3)
            reference = session_a.predict_many(images[:1])
            for step in range(30):
                request_id = server.submit(images[:1], model="m")
                np.testing.assert_array_equal(
                    server.result(request_id, timeout=30.0), reference
                )
            outcome = server.wait_canary("m", timeout=60.0)
            stats = server.stats()
        assert outcome["decision"] == "rollback"
        assert outcome["batch_errors"] >= 3
        assert outcome["canary_stats"]["retried"] >= 3
        assert stats["requests"]["failed"] == 0
        assert server.deployments() == {"m": {"key": "m@v1", "version": 1}}
        assert "m@v2" not in stats["routes"].values()

    def test_healthy_canary_auto_promotes(
        self, tmp_path, session_a, session_b, images
    ):
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", session_b)
        with FleetServer(registry, workers=2, max_delay_ms=0.5) as server:
            server.deploy("m", 1)
            status = server.start_canary("m", 2, fraction=0.5, min_requests=8)
            assert status["active"] and status["version"] == 2
            for step in range(40):
                server.result(server.submit(images[:1], model="m"),
                              timeout=30.0)
                if server.canary_status("m") is None:
                    break
            outcome = server.wait_canary("m", timeout=60.0)
            after = server.predict_many(images, timeout=30.0, model="m")
        assert outcome["decision"] == "promote"
        assert outcome["canary_stats"]["completed"] >= 8
        assert server.deployments() == {"m": {"key": "m@v2", "version": 2}}
        np.testing.assert_array_equal(after, session_b.predict_many(images))

    def test_canary_policy_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            CanaryPolicy(fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            CanaryPolicy(fraction=1.5)
        with pytest.raises(ValueError, match="min_requests"):
            CanaryPolicy(min_requests=0)
        with pytest.raises(ValueError, match="max_failures"):
            CanaryPolicy(max_failures=0)

    def test_deploy_explicit_snapshot_without_registry(self, session_a, images):
        with FleetServer(workers=1, max_delay_ms=0.5) as server:
            with pytest.raises(RegistryError, match="no registry"):
                server.deploy("m")
            server.deploy("m", version=1, snapshot=session_a.snapshot())
            out = server.predict_many(images[:4], timeout=30.0, model="m")
        np.testing.assert_array_equal(out, session_a.predict_many(images[:4]))


class TestFleetCli:
    def test_publish_list_swap_roundtrip(self, tmp_path, session_a,
                                         session_b, capsys):
        from repro.cli import main

        registry_dir = str(tmp_path / "reg")
        for index, session in enumerate((session_a, session_b)):
            path = str(tmp_path / f"v{index + 1}.pkl")
            with open(path, "wb") as handle:
                pickle.dump(session.snapshot(), handle)
            assert main([
                "fleet", "publish", "--registry", registry_dir,
                "--model-id", "bldg-1", "--snapshot", path,
                "--building", "1",
            ]) == 0
        assert main(["fleet", "list", "--registry", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "bldg-1" in out and "repro.infer.session/v1" in out
        assert main([
            "fleet", "swap", "--registry", registry_dir,
            "--model-id", "bldg-1", "--from-version", "1",
            "--to-version", "2", "--clients", "2", "--requests", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "lost=0" in out and "'version': 2" in out


class TestRegistryGc:
    def _orphan_blob(self, registry: ModelRegistry) -> str:
        """Plant a blob no manifest references (an interrupted publish)."""
        path = os.path.join(registry.root, "blobs", "f" * 64 + ".pkl")
        with open(path, "wb") as handle:
            handle.write(b"x" * 1024)
        return path

    def test_plain_gc_sweeps_orphan_blobs_only(self, tmp_path, session_a):
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        orphan = self._orphan_blob(registry)
        report = registry.gc()
        assert not os.path.exists(orphan)
        assert report["removed_versions"] == []
        assert len(report["removed_blobs"]) == 1
        assert report["bytes_reclaimed"] == 1024
        # The referenced blob survived and still loads with integrity.
        assert registry.load_session("m") is not None

    def test_dry_run_reports_without_deleting(self, tmp_path, session_a):
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        orphan = self._orphan_blob(registry)
        report = registry.gc(dry_run=True)
        assert report["dry_run"] is True
        assert report["bytes_reclaimed"] == 1024
        assert os.path.exists(orphan)  # nothing actually deleted
        assert registry.versions("m") == [1]

    def test_keep_latest_prunes_versions_and_their_blobs(
        self, tmp_path, session_a, session_b
    ):
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", session_b)
        third = _tiny_session(seed=2)
        registry.publish("m", third)
        sizes_before = sum(
            os.path.getsize(os.path.join(registry.root, "blobs", name))
            for name in os.listdir(os.path.join(registry.root, "blobs"))
        )
        report = registry.gc(keep_latest=1)
        assert registry.versions("m") == [3]
        assert {(e["model_id"], e["version"])
                for e in report["removed_versions"]} == {("m", 1), ("m", 2)}
        assert len(report["removed_blobs"]) == 2
        assert 0 < report["bytes_reclaimed"] < sizes_before
        # The survivor still loads.
        assert registry.get("m").version == 3

    def test_pinned_version_always_survives(self, tmp_path, session_a,
                                            session_b):
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", session_a)
        registry.publish("m", session_b)
        registry.publish("m", _tiny_session(seed=2))
        registry.pin("m", 1)
        report = registry.gc(keep_latest=1)
        # v1 is pinned: only v2 was prunable.
        assert registry.versions("m") == [1, 3]
        assert [e["version"] for e in report["removed_versions"]] == [2]
        assert registry.resolve("m") == 1
        registry.load_session("m", 1)  # pinned blob intact

    def test_dedup_shared_blob_survives_partial_prune(self, tmp_path,
                                                      session_a):
        """A blob shared by two versions (content-addressed dedup) must
        survive as long as either version's manifest remains."""
        registry = ModelRegistry(str(tmp_path / "reg"))
        snapshot = session_a.snapshot()
        registry.publish("m", snapshot)
        registry.publish("m", snapshot)  # same digest, deduped blob
        registry.publish("m", _tiny_session(seed=3))
        report = registry.gc(keep_latest=2)  # prunes v1 only; v2 shares blob
        assert registry.versions("m") == [2, 3]
        assert report["removed_blobs"] == []  # shared blob still referenced
        registry.load_session("m", 2)

    def test_keep_latest_validation(self, tmp_path):
        registry = ModelRegistry(str(tmp_path / "reg"))
        with pytest.raises(ValueError, match="keep_latest"):
            registry.gc(keep_latest=0)

    def test_cli_gc_dry_run_then_real(self, tmp_path, session_a, session_b,
                                      capsys):
        from repro.cli import main

        registry_dir = str(tmp_path / "reg")
        registry = ModelRegistry(registry_dir)
        registry.publish("bldg-1", session_a)
        registry.publish("bldg-1", session_b)
        assert main(["fleet", "gc", "--registry", registry_dir,
                     "--keep-latest", "1", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would reclaim" in out and "dry run" in out
        assert registry.versions("bldg-1") == [1, 2]  # untouched
        assert main(["fleet", "gc", "--registry", registry_dir,
                     "--keep-latest", "1"]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out and "bldg-1@v1" in out
        assert registry.versions("bldg-1") == [2]
