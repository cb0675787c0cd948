"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.config import RunConfig
from repro.harness.figures import FIGURES


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES:
        assert name in out


@pytest.mark.parametrize("argv", [["figure5"], ["figures", "fig99"],
                                  ["figures", "fig5", "--trials", "0"]])
def test_parser_rejects(argv):
    with pytest.raises(SystemExit):
        main(argv)


def test_figures_command_prints_checks_and_persists(capsys, monkeypatch, tmp_path):
    """Two trials per point, a failing shape, the chart and the files."""
    entry = FIGURES["ext_80ro"]
    tiny = {**entry.sweeps["quick"], "keys": 400, "nodes": 2,
            "run": RunConfig(duration=0.003, warmup=0.001)}

    def shape(rows):
        assert rows[0]["throughput_ktps"] < 0, "planted"

    monkeypatch.setitem(FIGURES, "ext_80ro", entry._replace(sweeps={"quick": tiny}, shape=shape))
    argv = ["figures", "ext_80ro", "--scale", "quick", "--trials", "2", "--chart",
            "--out", str(tmp_path)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "shape: FAILED -- assert rows[0]" in out and "planted" in out and "|#" in out
    header = (tmp_path / "ext_80ro.quick.csv").read_text().splitlines()[0]
    assert header.endswith("vas_inspected_mean,oracle,trials")
    assert "clean" in (tmp_path / "ext_80ro.quick.txt").read_text()


def test_config_command_round_trips_through_json(capsys, tmp_path):
    import json

    from repro import ClusterConfig

    assert main(["config", "--nodes", "8"]) == 0
    dumped = capsys.readouterr().out
    assert ClusterConfig.from_dict(json.loads(dumped)) == ClusterConfig(
        num_nodes=8
    )

    # A partial overlay file loads against defaults and echoes normalised.
    overlay = tmp_path / "cluster.json"
    overlay.write_text(
        '{"num_nodes": 3, "healing": {"anti_entropy_interval": 0.0004}}'
    )
    assert main(["config", "--load", str(overlay)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["num_nodes"] == 3
    assert echoed["healing"]["anti_entropy_interval"] == 0.0004
    assert "checkpoint_interval" in echoed["healing"]  # defaults filled in

    bad = tmp_path / "bad.json"
    bad.write_text('{"num_nodes": 3, "num_shards": 7}')
    with pytest.raises(ValueError, match="unknown keys"):
        main(["config", "--load", str(bad)])


def test_config_command_covers_replication(capsys, tmp_path):
    import json

    from repro import ClusterConfig, ReplicationConfig

    # The default dump includes the (inert) replication section.
    assert main(["config", "--nodes", "4"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["replication"] == ReplicationConfig().to_dict()
    assert dumped["replication"]["enabled"] is False

    # A replication overlay loads, validates, and echoes normalised.
    overlay = tmp_path / "replicated.json"
    overlay.write_text(
        '{"num_nodes": 3, "sharding": {"enabled": true},'
        ' "replication": {"enabled": true, "replication_factor": 3,'
        ' "mode": "sync", "failover_timeout": 0.004}}'
    )
    assert main(["config", "--load", str(overlay)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["replication"]["replication_factor"] == 3
    assert echoed["replication"]["mode"] == "sync"
    assert ClusterConfig.from_dict(echoed).replication.failover_timeout == 0.004

    # Validation still bites through the CLI path.
    bad = tmp_path / "bad_mode.json"
    bad.write_text('{"num_nodes": 3, "replication": {"mode": "quorum"}}')
    with pytest.raises(ValueError, match="sync"):
        main(["config", "--load", str(bad)])
