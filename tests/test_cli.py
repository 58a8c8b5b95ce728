import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pinkey import cli
from pinkey.cli import main


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


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

    @pytest.mark.parametrize("out", ["missing/out.json", "."])
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys, out):
        # A missing directory, and a directory in place of a file: each
        # ended in a traceback with exit 1.
        cfg = write_config(tmp_path,
                           {"capacity": {"pair_mis": [[1.0, 1.5],
                                                      [1.0, 2.0]]}})
        before = sorted(tmp_path.iterdir())
        assert main(["capacity", "--config", cfg,
                     "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write --out")
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

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

    def test_ideal_fixture_writes_no_note(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 3, "protocol": IDEAL_PROTOCOL})
        out = tmp_path / "out.json"
        assert main(["protocol", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_noisy_fixture_notes_cut_messages(self, tmp_path, capsys):
        # n=70 DSBS pairs agree on about 30 bits each, over the 20-bit
        # codebook budget, so every completed trial is cut.
        block = {"m": 2,
                 "pairs": [{"mode": "dsbs", "crossover_a": 0.02,
                            "crossover_b": 0.02}] * 2,
                 "n": 70, "trials": 5}
        cfg = write_config(tmp_path, {"seed": 5, "protocol": block})
        out = tmp_path / "out.json"
        assert main(["protocol", "--config", cfg, "--out", str(out)]) == 0
        completed = json.loads(out.read_text())["results"]["completed"]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"note: {completed} of {completed} completed "
                              f"trials cut their common messages")
        kept, full = (int(w) for w in err.split("keeping ")[1]
                      .split(" bits")[0].split(" of "))
        assert 0 < kept <= 20 * completed < full

    def test_over_budget_sampling_exit_3(self, tmp_path, capsys,
                                         monkeypatch):
        # 4 * 10^15 source bits per trial: the check must come before any
        # generator is built, let alone an array drawn.
        def forbidden(*args, **kwargs):
            raise AssertionError("an over-budget trial built a generator")

        monkeypatch.setattr(np.random, "Generator", forbidden)
        block = dict(IDEAL_PROTOCOL, n=10**15, pairs=[
            {"mode": "ideal_common", "bits_a": 1, "bits_b": 1}] * 2)
        cfg = write_config(tmp_path, {"protocol": block})
        out = tmp_path / "out.json"
        assert main(["protocol", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: sampling 4,000,000,000,000,000 source bits "
            "per trial, over the 2^24 budget\n")
        assert not out.exists()

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

    def test_over_budget_optimizer_exit_3(self, tmp_path, capsys):
        # M=4, T=69 has 10,424,128 slot allocations, over the 10^7 budget.
        cfg = write_config(tmp_path,
                           {"wireless": {"m": 4, "power_grid": [10.0],
                                         "optimize": True, "block_len": 69,
                                         "power": 10.0}})
        out = tmp_path / "out.csv"
        assert main(["wireless", "--config", cfg, "--out", str(out)]) == 3
        assert "budget exceeded" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("key,value", [("allocation", [1, 1, 1, 1, 4]),
                                           ("mc_samples", 1000)])
    def test_unread_keys_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path,
                           {"wireless": {"m": 2, "power_grid": [10.0],
                                         key: value}})
        assert main(["wireless", "--config", cfg]) == 2
        assert "unknown keys" in capsys.readouterr().err


class TestSweepCommand:
    def test_tightness_sweep_no_failures(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"sweep": {"kind": "tightness", "count": 300}})
        out = tmp_path / "out.json"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["tightness_failures"] == 0

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

    def test_tightness_sweep_memory_flat_in_count(self):
        # At the 2^24-cell budget the whole (count, 6, 2) array of MI
        # pairs is 128 MiB, and evaluating it at once peaked at 288 MiB.
        # Only the int64 relay counts grow with count; each slice of
        # pairs holds at most 2^18 cells (2 MiB).
        count = 1_398_101
        block = {"count": count, "m_min": 2, "m_max": 6, "i_max": 4.0}
        tracemalloc.start()
        try:
            result = cli._tightness_sweep(block, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == {"count": count, "tightness_failures": 0,
                          "max_gap": 0.0}
        assert peak < 8 * count + (8 << 20)

    def test_tightness_sweep_ignores_jobs(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"kind": "tightness",
                                                "count": 200}})
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sweep", "--config", cfg, "--out", str(out1),
                     "--jobs", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2),
                     "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_leakage_sweep_ignores_jobs(self, tmp_path):
        budgets = [6, 2, 4]
        cfg = write_config(tmp_path,
                           {"seed": 2, "sweep": {"kind": "leakage", "m": 2,
                                                 "bits_per_message": budgets,
                                                 "codebooks": 4}})
        outputs = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"jobs{jobs}.json"
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        table = json.loads(outputs[0])["results"]["table"]
        assert [row["bits_per_message"] for row in table] == budgets

    @pytest.mark.parametrize("jobs,codebooks,workers", [
        (64, 3, 3), (2, 5, 2), (8, 1, None)])
    def test_pool_never_outnumbers_tasks(self, tmp_path, monkeypatch,
                                         jobs, codebooks, workers):
        # A stand-in Pool records its size and maps in-process, so no
        # worker is ever started.
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks, chunksize=None):
                return [func(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        cfg = write_config(tmp_path,
                           {"sweep": {"kind": "leakage", "m": 2,
                                      "bits_per_message": [2],
                                      "codebooks": codebooks}})
        assert main(["sweep", "--config", cfg, "--jobs", str(jobs)]) == 0
        assert sizes == ([] if workers is None else [workers])

    def test_pool_module_imported_only_by_a_pool(self):
        # A fresh interpreter: importing the CLI loads no multiprocessing.
        code = ("import sys, pinkey.cli; "
                "sys.exit('multiprocessing' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code],
                              timeout=60).returncode == 0

    def test_over_budget_sweep_fails_before_any_work(self, tmp_path,
                                                     monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started on an over-budget sweep")

        monkeypatch.setattr(multiprocessing, "Pool", forbidden)
        monkeypatch.setattr(cli.distillation, "build_codebook", forbidden)
        cfg = write_config(tmp_path,
                           {"sweep": {"kind": "leakage", "m": 2,
                                      "bits_per_message": [2, 30],
                                      "codebooks": 100}})
        assert main(["sweep", "--config", cfg, "--jobs", "2"]) == 3

    def test_bad_kind_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"kind": "nonsense"}})
        assert main(["sweep", "--config", cfg]) == 2

    @pytest.mark.parametrize("section", [
        # 1,398,102 instances of 6 relays pad to 16,777,224 cells, just
        # over 2^24; a million relays at the default count would be 16 GB.
        {"count": 1_398_102, "m_max": 6}, {"m_max": 1_000_000}])
    def test_over_budget_tightness_sweep_allocates_nothing(
            self, tmp_path, monkeypatch, capsys, section):
        def forbidden(*args, **kwargs):
            raise AssertionError("an over-budget sweep drew its instances")

        monkeypatch.setattr(cli.np.random, "Generator", forbidden)
        cfg = write_config(tmp_path, {"sweep": {"kind": "tightness",
                                                **section}})
        assert main(["sweep", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1

    def test_budget_breach_exit_code(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"sweep": {"kind": "leakage", "m": 2,
                                      "bits_per_message": [30],
                                      "codebooks": 1}})
        assert main(["sweep", "--config", cfg]) == 3


HUGE = 10 ** 400

BAD_CONFIGS = {
    "count_text": ("sweep", '{"sweep": {"kind": "tightness", '
                            '"count": "abc"}}'),
    "i_max_negative": ("sweep", '{"sweep": {"kind": "tightness", '
                                '"i_max": -1}}'),
    "i_max_zero": ("sweep", '{"sweep": {"kind": "tightness", "i_max": 0}}'),
    "count_overflow": ("sweep", '{"sweep": {"kind": "tightness", '
                                '"count": 1e309}}'),
    "count_null": ("sweep", '{"sweep": {"kind": "tightness", '
                            '"count": null}}'),
    "sweep_not_object": ("sweep", '{"sweep": 5}'),
    "i_max_overflow": ("sweep", '{"sweep": {"kind": "tightness", '
                                '"i_max": 1e309}}'),
    "budget_text": ("sweep", '{"sweep": {"kind": "leakage", '
                             '"bits_per_message": ["x"]}}'),
    "budgets_not_list": ("sweep", '{"sweep": {"kind": "leakage", '
                                  '"bits_per_message": 5}}'),
    "trials_text": ("protocol", json.dumps(
        {"protocol": dict(IDEAL_PROTOCOL, trials="z")})),
    "budget_negative": ("sweep", '{"sweep": {"kind": "leakage", '
                                 '"bits_per_message": [-1]}}'),
    "bits_fraction": ("protocol", json.dumps({"protocol": dict(
        IDEAL_PROTOCOL, pairs=[{"mode": "ideal_common", "bits_a": 2.5,
                                "bits_b": 1}] * 2)})),
    "bits_boolean": ("protocol", json.dumps({"protocol": dict(
        IDEAL_PROTOCOL, pairs=[{"mode": "ideal_common", "bits_a": True,
                                "bits_b": 1}] * 2)})),
    "trials_fraction": ("protocol", json.dumps(
        {"protocol": dict(IDEAL_PROTOCOL, trials=2.7)})),
    "codebooks_fraction": ("sweep", '{"sweep": {"kind": "leakage", '
                                    '"codebooks": 1.5}}'),
    "budget_fraction": ("sweep", '{"sweep": {"kind": "leakage", '
                                 '"bits_per_message": [2.5]}}'),
    "block_len_fraction": ("wireless", '{"wireless": {"m": 2, '
                                       '"power_grid": [10.0], '
                                       '"optimize": true, "power": 10.0, '
                                       '"block_len": 8.9}}'),
    # Integers past the float range (10^400) raise OverflowError.
    "noise_var_huge": ("wireless", '{"wireless": {"m": 2, '
                                   '"power_grid": [10.0], '
                                   f'"noise_var": {HUGE}}}}}'),
    "channel_var_huge": ("wireless", '{"wireless": {"m": 2, '
                                     '"power_grid": [10.0], '
                                     f'"channel_var": {HUGE}}}}}'),
    "power_huge": ("wireless", '{"wireless": {"m": 2, "power_grid": [10.0], '
                               f'"optimize": true, "power": {HUGE}}}}}'),
    "power_grid_huge": ("wireless", '{"wireless": {"m": 2, '
                                    f'"power_grid": [{HUGE}]}}}}'),
    "channel_vars_huge": ("wireless", '{"wireless": {"m": 2, '
                                      '"power_grid": [10.0], '
                                      '"optimize": true, "power": 10.0, '
                                      f'"channel_vars": [[{HUGE}, 1], '
                                      '[1, 1]]}}'),
    # Finite values whose square overflows a float in the rate formula.
    "power_grid_square_overflow": ("wireless", '{"wireless": {"m": 2, '
                                               '"power_grid": [1e200]}}'),
    "power_square_overflow": ("wireless", '{"wireless": {"m": 2, '
                                          '"power_grid": [10.0], '
                                          '"optimize": true, '
                                          '"power": 1e200}}'),
    "noise_var_square_overflow": ("wireless", '{"wireless": {"m": 2, '
                                              '"power_grid": [10.0], '
                                              '"noise_var": 1e200}}'),
    "channel_var_square_overflow": ("wireless", '{"wireless": {"m": 2, '
                                                '"power_grid": [10.0], '
                                                '"channel_var": 1e200}}'),
    "channel_vars_square_overflow": ("wireless", '{"wireless": {"m": 2, '
                                                 '"power_grid": [10.0], '
                                                 '"optimize": true, '
                                                 '"power": 10.0, '
                                                 '"channel_vars": '
                                                 '[[1e200, 1], [1, 1]]}}'),
    # The squares fit, but the rates come out infinite.
    "power_rate_overflow": ("wireless", '{"wireless": {"m": 2, '
                                        '"power_grid": [10.0], '
                                        '"optimize": true, '
                                        '"power": 1e154}}'),
    "pair_mis_huge": ("capacity", '{"capacity": {"pair_mis": '
                                  f'[[{HUGE}, 1], [1, 1]]}}}}'),
    # json reads a float literal past the float range as inf.
    "pair_mis_float_overflow": ("capacity", '{"capacity": {"pair_mis": '
                                            '[[1e400, 1], [1, 1]]}}'),
    # Each of these ran with the value ignored or coerced before every
    # key was read against one typed table.
    "optimize_text": ("wireless", '{"wireless": {"m": 2, '
                                  '"power_grid": [10.0], "optimize": "no"}}'),
    "leakage_epsilon_den": ("sweep", '{"sweep": {"kind": "leakage", '
                                     '"bits_per_message": [2], '
                                     '"codebooks": 1, "epsilon_den": 99}}'),
    "leakage_count": ("sweep", '{"sweep": {"kind": "leakage", '
                               '"bits_per_message": [2], "codebooks": 1, '
                               '"count": 7}}'),
    "tightness_budgets": ("sweep", '{"sweep": {"kind": "tightness", '
                                   '"count": 2, "bits_per_message": [99]}}'),
    "dsbs_bits": ("protocol", json.dumps({"protocol": dict(
        IDEAL_PROTOCOL, n=70, trials=1,
        pairs=[{"mode": "dsbs", "crossover_a": 0.02, "crossover_b": 0.02,
                "bits_a": 9}] * 2)})),
    "ideal_crossover": ("protocol", json.dumps({"protocol": dict(
        IDEAL_PROTOCOL, pairs=[{"mode": "ideal_common", "bits_a": 2,
                                "bits_b": 1, "crossover_a": 0.4}] * 2)})),
    "noise_var_text": ("wireless", '{"wireless": {"m": 2, '
                                   '"power_grid": [10.0], '
                                   '"noise_var": "2.0"}}'),
    "power_grid_text": ("wireless", '{"wireless": {"m": 2, '
                                    '"power_grid": ["10", "100"]}}'),
    "power_boolean": ("wireless", '{"wireless": {"m": 2, '
                                  '"power_grid": [10.0], "optimize": true, '
                                  '"power": true}}'),
    "i_max_text": ("sweep", '{"sweep": {"kind": "tightness", '
                            '"count": 2, "i_max": "1e3"}}'),
    "pair_mis_boolean": ("capacity", '{"capacity": {"pair_mis": '
                                     '[[1, true], [1, 1]]}}'),
    "seed_text_overridden": ("capacity --seed 4",
                             '{"seed": "abc", "capacity": '
                             '{"pair_mis": [[1, 1], [1, 1]]}}'),
    # Each of these ran before every result had one config path: the
    # removed capacity.random_sweep, a flag or key that went unread.
    "capacity_random_sweep": ("capacity", '{"capacity": {"pair_mis": '
                                          '[[1, 1], [1, 1]], "random_sweep": '
                                          '{"count": 2}}}'),
    "capacity_random_sweep_only": ("capacity", '{"capacity": '
                                               '{"random_sweep": '
                                               '{"count": 2}}}'),
    "capacity_without_pair_mis": ("capacity", '{"capacity": {}}'),
    "capacity_format": ("capacity --format csv", '{"capacity": {"pair_mis": '
                                                 '[[1, 1], [1, 1]]}}'),
    "protocol_format": ("protocol --format json", json.dumps(
        {"protocol": dict(IDEAL_PROTOCOL, trials=1)})),
    "sweep_format": ("sweep --format csv", '{"sweep": {"kind": "tightness", '
                                           '"count": 2}}'),
    "unread_block_len": ("wireless", '{"wireless": {"m": 2, '
                                     '"power_grid": [10.0], "power": 55.0, '
                                     '"block_len": 3}}'),
    "unread_power": ("wireless", '{"wireless": {"m": 2, "power_grid": [10.0], '
                                 '"optimize": false, "power": 5.0}}'),
    "unread_channel_vars": ("wireless", '{"wireless": {"m": 2, '
                                        '"power_grid": [10.0], '
                                        '"channel_vars": [[1, 1], [1, 1]]}}'),
    # Each of these exited 0 with Infinity or NaN in the output, or (the
    # slot past int64) crashed with a numpy traceback.
    "pair_mis_sum_overflow": ("capacity", '{"capacity": {"pair_mis": '
                                          '[[1.0, 2.0], [1e308, 1e308], '
                                          '[1e308, 1e308]]}}'),
    "i_max_sum_overflow": ("sweep", '{"sweep": {"kind": "tightness", '
                                    '"i_max": 1e308}}'),
    "slot_past_int64": ("wireless", '{"wireless": {"m": 2, '
                                    '"power_grid": [10.0], '
                                    '"slot": 100000000000000000000}}'),
    "block_len_past_2_to_53": ("wireless", '{"wireless": {"m": 2, '
                                           '"power_grid": [10.0], '
                                           '"optimize": true, '
                                           f'"block_len": {2 ** 53}}}}}'),
}


@pytest.mark.parametrize("command,text", BAD_CONFIGS.values(),
                         ids=BAD_CONFIGS.keys())
def test_bad_config_values_exit_2(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_result_exits_4_and_writes_nothing(tmp_path, capsys,
                                                      monkeypatch, value):
    # main looks each runner up when it runs, so the stand-in is called.
    monkeypatch.setattr(cli, "run_capacity",
                        lambda block, seed, jobs: {"gap": value})
    cfg = write_config(tmp_path, {"capacity": {"pair_mis": [[1, 1], [1, 1]]}})
    out = tmp_path / "out.json"
    assert main(["capacity", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: ") and err.count("\n") == 1
    assert not out.exists()


BAD_SEEDS = {
    "text": ({"seed": "abc"}, []),
    "negative": ({"seed": -3}, []),
    "fraction": ({"seed": 1.5}, []),
    "boolean": ({"seed": True}, []),
    "null": ({"seed": None}, []),
    "negative_flag": ({"seed": 3}, ["--seed", "-3"]),
    "text_under_flag": ({"seed": "abc"}, ["--seed", "4"]),
}


@pytest.mark.parametrize("command,section", [
    ("protocol", IDEAL_PROTOCOL),
    ("sweep", {"kind": "tightness", "count": 2}),
])
@pytest.mark.parametrize("seed_config,flags", BAD_SEEDS.values(),
                         ids=BAD_SEEDS.keys())
def test_bad_seed_exit_2(tmp_path, capsys, command, section, seed_config,
                         flags):
    cfg = write_config(tmp_path, {**seed_config, command: section})
    assert main([command, "--config", cfg, *flags]) == 2
    assert "config error: seed must be" in capsys.readouterr().err


def _readme_config():
    with open(README) as fh:
        text = fh.read()
    return json.loads(text.split("Example config:")[1]
                      .split("```json\n")[1].split("```")[0])


@pytest.mark.parametrize("command", ["protocol", "wireless"])
def test_readme_example_config_runs(tmp_path, command):
    cfg = write_config(tmp_path, _readme_config())
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


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
