"""CLI commands that drive load through ``repro.serve.loadgen``: each
must exit 0 and print its key line.  Tiny geometry keeps every command
to a few seconds."""

import pytest

from repro.cli import main
from repro.fleet import ModelRegistry
from repro.serve.bench import make_session

TINY = ["--image-size", "12", "--num-classes", "5", "--max-batch", "8"]


def test_serve_quick(capsys):
    assert main(["serve", "--workers", "2", "--quick", "--clients", "3",
                 *TINY]) == 0
    out = capsys.readouterr().out
    # --quick: max(2, 24 // 4) = 6 requests of 8 samples per client.
    assert "served 144 samples" in out
    assert '"transport"' in out


def test_serve_has_no_transport_flag(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--transport", "pickle"])


def test_fleet_serve(tmp_path, capsys):
    registry_dir = str(tmp_path / "reg")
    registry = ModelRegistry(registry_dir)
    for index, model_id in enumerate(("bldg-1", "bldg-2")):
        registry.publish(model_id, make_session(12, 5, 8, seed=index))
    assert main(["fleet", "serve", "--registry", registry_dir,
                 "--models", "bldg-1,bldg-2:1", "--workers", "2",
                 "--max-batch", "8", "--clients", "2",
                 "--requests", "3"]) == 0
    out = capsys.readouterr().out
    # 2 clients x 3 requests x (8 // 4) samples per model.
    assert "bldg-1: 12 samples" in out and "bldg-2: 12 samples" in out
    assert "errors=0" in out and "fleet stats:" in out


def test_obs_top(capsys):
    assert main(["obs", "top", "--duration", "1", "--interval", "0.25",
                 "--clients", "2", *TINY]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["time", "queue", "inflight"]
    assert lines[-1] == "done"
    completed = [int(line.split()[-1]) for line in lines[1:-1]]
    assert completed and completed[-1] > 0


def test_obs_watch_gateway_spike(tmp_path, capsys):
    journal = str(tmp_path / "journal.jsonl")
    assert main(["obs", "watch", "--gateway", "--duration", "2.5",
                 "--spike-at", "1", "--interval", "0.25", "--clients", "2",
                 "--journal", journal, *TINY]) == 0
    out = capsys.readouterr().out
    assert "BREACHING" in out
    assert "alerts: latency_p95_high" in out
    rows = [line for line in out.splitlines()
            if line.strip().startswith("gateway :")]
    assert rows and " 0/" not in rows[-1].split("cache")[1]  # warm hits
    assert f"journal written to {journal}" in out
