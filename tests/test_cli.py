import json

import pytest

from pinkey.cli import main


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


IDEAL_PROTOCOL = {
    "m": 2,
    "pairs": [{"mode": "ideal_common", "bits_a": 2, "bits_b": 1},
              {"mode": "ideal_common", "bits_a": 1, "bits_b": 2}],
    "n": 2,
    "epsilon_bits": 1,
    "trials": 10,
}


class TestCapacityCommand:
    def test_fixture_report(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"seed": 1,
                            "capacity": {"pair_mis": [[1.0, 1.5],
                                                      [1.0, 2.0]]}})
        out = tmp_path / "out.json"
        assert main(["capacity", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["report"]["capacity"] == 1.0
        assert doc["results"]["tightness_gap"] == 0.0
        assert doc["seed"] == 1
        assert len(doc["config_digest"]) == 64

    def test_random_sweep_no_failures(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"capacity": {"random_sweep": {"count": 300}}})
        out = tmp_path / "out.json"
        assert main(["capacity", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["random_sweep"]["tightness_failures"] == 0

    def test_single_relay_rejected(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"capacity": {"pair_mis": [[1.0, 1.0]]}})
        assert main(["capacity", "--config", cfg]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"capacity": {"pair_mis": [[1, 1], [1, 1]],
                                         "typo_field": 3}})
        assert main(["capacity", "--config", cfg]) == 2

    def test_missing_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 0})
        assert main(["capacity", "--config", cfg]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["capacity", "--config",
                     str(tmp_path / "absent.json")]) == 2


class TestProtocolCommand:
    def test_ideal_fixture_no_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 3, "protocol": IDEAL_PROTOCOL})
        out = tmp_path / "out.json"
        assert main(["protocol", "--config", cfg, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["p_key_mismatch"] == 0.0
        assert res["key_bits"] == 1
        assert res["reconciliation_failures"] == 0
        assert res["mean_max_leakage_bits"] is not None
        assert res["transcript_digest"]

    def test_noisy_fixture_reports_rates(self, tmp_path):
        block = {"m": 2,
                 "pairs": [{"mode": "dsbs", "crossover_a": 0.02,
                            "crossover_b": 0.02}] * 2,
                 "n": 70, "trials": 5}
        cfg = write_config(tmp_path, {"seed": 5, "protocol": block})
        out = tmp_path / "out.json"
        assert main(["protocol", "--config", cfg, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["completed"] + res["reconciliation_failures"] == 5
        if res["mean_achieved_rates"]:
            assert all(0.0 <= r < 1.0 for r in res["mean_achieved_rates"])

    def test_single_relay_rejected(self, tmp_path):
        block = dict(IDEAL_PROTOCOL, m=1, pairs=IDEAL_PROTOCOL["pairs"][:1])
        cfg = write_config(tmp_path, {"protocol": block})
        assert main(["protocol", "--config", cfg]) == 2


class TestWirelessCommand:
    def test_csv_sweep(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"wireless": {"m": 4,
                                         "power_grid": [1e3, 1e6, 1e8]}})
        out = tmp_path / "sweep.csv"
        assert main(["wireless", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_digest=")
        assert "P,rb_ratio,xor_ratio,r_key,r_s" in lines
        assert len([l for l in lines if not l.startswith("#")]) == 4

    def test_json_with_optimizer(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"wireless": {"m": 2, "power_grid": [10.0, 100.0],
                                         "optimize": True, "block_len": 8,
                                         "power": 1.0}})
        out = tmp_path / "sweep.json"
        assert main(["wireless", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["allocation"]["method"] == "exhaustive"
        assert sum(doc["results"]["allocation"]["allocation"]) == 8

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"wireless": {"m": 4, "power_grid": []}})
        assert main(["wireless", "--config", cfg]) == 2

    @pytest.mark.parametrize("grid", [[1.0, 10.0], [0.5, 10.0]])
    def test_grid_power_at_most_one_rejected(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path,
                           {"wireless": {"m": 4, "power_grid": grid}})
        assert main(["wireless", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("channel_vars", [[None, [1, 1]],
                                              [[1, 1], [1, "strong"]],
                                              [[1, 1], [1, None]]])
    def test_bad_channel_vars_rejected(self, tmp_path, capsys, channel_vars):
        cfg = write_config(tmp_path,
                           {"wireless": {"m": 2, "power_grid": [10.0],
                                         "optimize": True, "block_len": 8,
                                         "channel_vars": channel_vars}})
        assert main(["wireless", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err


class TestSweepCommand:
    def test_leakage_sweep(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"sweep": {"kind": "leakage", "m": 2,
                                      "bits_per_message": [2, 4],
                                      "codebooks": 10}})
        out = tmp_path / "out.json"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        table = json.loads(out.read_text())["results"]["table"]
        assert len(table) == 2
        assert all(row["mean_max_leakage_bits"] >= 0.0 for row in table)

    def test_bad_kind_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"kind": "nonsense"}})
        assert main(["sweep", "--config", cfg]) == 2

    def test_budget_breach_exit_code(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"sweep": {"kind": "leakage", "m": 2,
                                      "bits_per_message": [30],
                                      "codebooks": 1}})
        assert main(["sweep", "--config", cfg]) == 3


class TestReproducibility:
    def test_flag_overrides_config_seed(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 3, "protocol": IDEAL_PROTOCOL})
        out = tmp_path / "out.json"
        assert main(["protocol", "--config", cfg, "--out", str(out),
                     "--seed", "99"]) == 0
        assert json.loads(out.read_text())["seed"] == 99

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 3, "protocol": IDEAL_PROTOCOL})
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["protocol", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["protocol", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
