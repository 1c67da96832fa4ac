import json

import numpy as np
import pytest

from genomask import (
    GenomaskError,
    MaskedSequence,
    Ordering,
    STAR,
    achievable_rate_exact,
    distributions,
    load_model_config,
    load_panel,
    mechanism,
    upper_bound_rate,
    window_leakage_exact,
)
from genomask.cli import main
from genomask.distributions import HmmModel
from genomask.experiments import CSV_COLUMNS
from genomask.mechanism import EnumeratedMechanism

from conftest import first_seen_window_leakage, radius_window, replayed_ratios
from strategies import seeded_examples


@pytest.fixture
def panel_file(tmp_path):
    path = tmp_path / "panel.txt"
    assert main(["gen-panel", "--m", "6", "--n", "8", "--seed", "11",
                 "--out", str(path)]) == 0
    return path


def test_gen_panel_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen-panel", "--m", "5", "--n", "7", "--seed", "3", "--out", str(a)])
    main(["gen-panel", "--m", "5", "--n", "7", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    panel = load_panel(a)
    assert panel.shape == (5, 7)


def test_gen_panel_alphabet(tmp_path):
    out = tmp_path / "p3.txt"
    main(["gen-panel", "--m", "4", "--n", "6", "--alphabet", "3",
          "--seed", "0", "--out", str(out)])
    panel = load_panel(out)
    assert panel.max() == 2


def test_mask_all_sensitive(panel_file, capsys):
    assert main(["mask", "--panel", str(panel_file), "--k",
                 ",".join(str(i) for i in range(1, 9)),
                 "--sample", "--seed", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "*" * 8


def test_mask_of_a_zero_probability_x_warns_in_one_line(tmp_path, capsys):
    # the warning used to print as Python's file path and line number,
    # then the echoed source line; a second call in the process warns too
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps({"type": "explicit", "n": 3, "alphabet": 2,
                               "probs": [0.1, 0.1, 0.7, 0, 0.1, 0, 0, 0]}))
    for _ in range(2):
        assert main(["mask", "--model", str(cfg), "--k", "3",
                     "--x", "111"]) == 0
        out, err = capsys.readouterr()
        assert out == "***\n"
        assert err.startswith("warning: input sequence has probability zero")
        assert err.count("\n") == 1


def test_mask_deterministic_and_transcript(panel_file, tmp_path, capsys):
    tr = tmp_path / "t.jsonl"
    args = ["mask", "--panel", str(panel_file), "--epsilon", "0.2",
            "--theta", "0.05", "--k", "2", "--sample", "--seed", "9",
            "--transcript", str(tr)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first

    entries = [json.loads(line) for line in tr.read_text().splitlines()]
    assert all(0.0 <= e["release_prob"] <= 1.0 for e in entries)
    assert entries[1]["release_prob"] == 0.0 and entries[1]["outcome"] == "*"


def test_transcript_matches_reference_recomputation(panel_file, capsys):
    """Audit the fast path's recorded release probabilities against the
    enumeration oracle, replaying the produced prefix."""
    rng = np.random.default_rng(21)
    model = HmmModel(load_panel(panel_file), 0.25, 0.1)
    x = model.sample(rng)
    from genomask import mask_sequence

    masked, transcript = mask_sequence(model, x, (1,), rng=rng)
    engine = EnumeratedMechanism(model, (1,))
    prefix = []
    for entry in transcript:
        ratios = replayed_ratios(engine, entry.index, prefix)
        expected = ratios[x[1], x[entry.index]]       # u = (x[1],) is code x[1]
        assert entry.release_prob == pytest.approx(expected, abs=1e-9)
        prefix.append((entry.index, entry.outcome))


def test_rate_and_bound_commands(panel_file, capsys):
    assert main(["rate", "--panel", str(panel_file), "--k", "1",
                 "--runs", "400", "--seed", "2", "--json"]) == 0
    rate = json.loads(capsys.readouterr().out)
    assert 0.0 <= rate["rate"] <= 1.0 and rate["runs"] == 400

    assert main(["bound", "--panel", str(panel_file), "--k", "1",
                 "--json"]) == 0
    bound = json.loads(capsys.readouterr().out)
    assert rate["rate"] <= bound["bound"] + 4 * rate["stderr"] + 1e-9


def test_exact_rate_via_markov_config(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"type": "markov", "n": 4,
                               "initial": [0.5, 0.5],
                               "transition": [[0.9, 0.1], [0.1, 0.9]]}))
    assert main(["rate", "--model", str(cfg), "--k", "1", "--json"]) == 0
    rate = json.loads(capsys.readouterr().out)
    assert main(["bound", "--model", str(cfg), "--k", "1", "--json"]) == 0
    bound = json.loads(capsys.readouterr().out)
    assert rate["rate"] == pytest.approx(bound["bound"], abs=1e-9)

    assert main(["lp", "--model", str(cfg), "--k", "1", "--json"]) == 0
    lp = json.loads(capsys.readouterr().out)
    assert lp["rate"] == pytest.approx(bound["bound"], abs=1e-7)


def test_window_command(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"type": "markov", "n": 5,
                               "initial": [0.5, 0.5],
                               "transition": [[0.8, 0.2], [0.2, 0.8]]}))
    assert main(["window", "--model", str(cfg), "--k", "1",
                 "--omega", "0,2,5", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0]["leakage"] == pytest.approx(1.0)
    assert rows[-1]["leakage"] == pytest.approx(0.0, abs=1e-10)


def test_window_powers_past_the_budget_exit_3_before_any_draw(
        tmp_path, monkeypatch, capsys):
    # --k 50 on a 20 x 100 panel holds T^5, T^10, T^20 and T^30 (12800
    # bytes) beside rows of seven m-vectors (1120 bytes): one byte short
    # of both, the sweep refuses before it draws a sample
    panel = tmp_path / "p100.txt"
    assert main(["gen-panel", "--m", "20", "--n", "100", "--seed", "1",
                 "--out", str(panel)]) == 0

    def no_draws(*_):
        raise AssertionError("sample_batch called")

    monkeypatch.setattr(HmmModel, "sample_batch", no_draws)
    monkeypatch.setattr(distributions, "BELIEF_BUDGET_BYTES",
                        4 * 8 * 20 ** 2 + 7 * 8 * 20 - 1)
    assert main(["window", "--panel", str(panel), "--k", "50",
                 "--runs", "10"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


_CHAIN = {"initial": [0.4, 0.6], "transition": [[0.85, 0.15], [0.3, 0.7]]}


def test_window_around_an_interior_position(tmp_path, capsys):
    # a window of size w erases the positions within w - 1 of --k 3, so
    # w = 1 already erases x_2; a prefix window released it up to w = 3
    cfg = tmp_path / "markov6.json"
    cfg.write_text(json.dumps({"type": "markov", "n": 6, **_CHAIN}))
    assert main(["window", "--model", str(cfg), "--k", "3",
                 "--omega", "0,1,2,3,4", "--runs", "0", "--json"]) == 0
    got = [json.loads(line)["leakage"]
           for line in capsys.readouterr().out.splitlines()]
    model = load_model_config(cfg)
    want = [first_seen_window_leakage(model, [2], radius_window(6, [2], w - 1))
            for w in range(5)]
    assert np.allclose(got, want, rtol=0, atol=1e-12), got
    assert np.allclose(got, [1.0, 0.4101122022965716, 0.13403848778149136,
                             0.021734531152334143, 0.0], rtol=0, atol=1e-12)
    # the sampled estimator joins a filter over x_0 .. x_lo and the backward
    # pass over x_hi .. x_5 at x_2
    assert main(["window", "--model", str(cfg), "--k", "3",
                 "--omega", "0,1,2,3,4", "--runs", "20000", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for exact, r in zip(got, rows):
        assert abs(r["leakage"] - exact) <= 4 * max(r["stderr"], 1e-4), rows


def test_robustness_command(tmp_path, capsys):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"type": "markov", "n": 4, "initial": [0.5, 0.5],
                             "transition": [[0.9, 0.1], [0.1, 0.9]]}))
    q.write_text(json.dumps({"type": "markov", "n": 4, "initial": [0.5, 0.5],
                             "transition": [[0.8, 0.2], [0.2, 0.8]]}))
    assert main(["robustness", "--model", str(p), "--q-model", str(q),
                 "--k", "1"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert 0 < res["leakage_bits"] <= res["kl_bound_bits"]


def test_hardness_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"m": 3, "sets": [[1, 2], [2, 3]]}))
    assert main(["hardness", "--instance", str(inst)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["e_star"] == rep["h_star"] == 1
    # a literal longer than the OS path limit is read as JSON, not a path
    literal = json.dumps({"m": 3, "sets": [[1, 2], [2, 3]], "note": "x" * 5000})
    assert main(["hardness", "--instance", literal]) == 0
    assert json.loads(capsys.readouterr().out) == rep


def test_experiment_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["experiment", "--name", "hardness", "--runs", "6", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_repeated_positions_count_once(capsys):
    # "--k 1,1" used to parse as two sensitive positions, so the hardness
    # sweep drew instances with 2 sets where "--k 1" draws the default 3
    outs = []
    for k in ("1", "1,1"):
        assert main(["experiment", "--name", "hardness", "--runs", "3",
                     "--seed", "3", "--k", k, "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_experiment_fig5_tiny(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["experiment", "--name", "fig5", "--n", "6", "--m", "12",
                 "--epsilon", "0.05", "--theta", "0.05", "--runs", "1",
                 "--seed", "7", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["status"] == "optimal"
    assert float(row["rate"]) <= float(row["lp_rate"]) + 1e-7
    assert float(row["lp_rate"]) <= float(row["bound"]) + 1e-7


def test_experiment_fig3_takes_its_default_omegas_up_to_n(tmp_path, capsys):
    # the default grid 0, 5, .., 50 used to reach past n = 12 and exit 2;
    # an explicit omega past n still does
    args = ["experiment", "--name", "fig3", "--n", "12", "--m", "6",
            "--k", "5", "--runs", "50"]
    outs = []
    for path in (tmp_path / "a.csv", tmp_path / "b.csv"):
        assert main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    header, *lines = outs[0].decode().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines]
    assert [r["omega"] for r in rows] == ["", "0", "5", "10"]
    assert all(np.isfinite(float(v)) for v in (rows[0]["rate"],
                                               rows[0]["stderr"]))
    assert all(np.isfinite(float(r["leakage"]))
               and np.isfinite(float(r["leakage_stderr"])) for r in rows[1:])
    assert main(args + ["--omega", "15"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_experiment_checks_omega_before_any_rate(monkeypatch, capsys):
    # an omega past n used to cost the whole Monte-Carlo rate of fig3
    # before the sweep refused it
    def refuse(*args, **kwargs):
        raise AssertionError("the rate ran before omega was checked")

    monkeypatch.setattr(mechanism, "achievable_rate_mc", refuse)
    assert main(["experiment", "--name", "fig3", "--omega", "0,120"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: omega 120 outside 0..100\n", err


def test_experiment_robustness_stays_within_its_bound(capsys):
    assert main(["experiment", "--name", "robustness", "--n", "4",
                 "--runs", "3", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 3
    assert all(r["status"] == "ok" and r["leakage"] <= r["kl_bound"] + 1e-9
               for r in rows), rows


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # input error: malformed sensitive positions
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"type": "markov", "n": 3,
                               "initial": [0.5, 0.5],
                               "transition": [[0.9, 0.1], [0.1, 0.9]]}))
    assert main(["rate", "--model", str(cfg), "--k", "9"]) == 2
    capsys.readouterr()
    # capacity error: LP far beyond the variable budget
    panel = tmp_path / "p.txt"
    main(["gen-panel", "--m", "4", "--n", "12", "--seed", "0",
          "--out", str(panel)])
    capsys.readouterr()
    assert main(["lp", "--panel", str(panel), "--k", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "LP_VAR_BUDGET" in err and "matrix" not in err
    # capacity error: the 8-sequence space over a shrunken enumeration budget
    monkeypatch.setattr(distributions, "ENUMERATION_BUDGET", 7)
    assert main(["rate", "--model", str(cfg), "--k", "1", "--runs", "0"]) == 3


def test_gen_panel_beyond_the_memory_budget_exits_3(tmp_path, capsys):
    # the size check comes before any draw, so nothing is allocated
    out = tmp_path / "huge.txt"
    assert main(["gen-panel", "--m", "100000000000", "--n", "100000000000",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_sensitive_hypotheses_past_the_cap_exit_3(tmp_path, capsys):
    # 10^4 hypotheses of a 10-symbol model pass |K| <= 12 but not the
    # 2^12 hypothesis cap, which is checked before they are listed
    panel = tmp_path / "p13.txt"
    panel.write_text("0101101011010\n1100110011001\n")
    cfg = tmp_path / "a10.json"
    cfg.write_text(json.dumps({"type": "hmm", "panel_path": str(panel),
                               "epsilon": 0.1, "theta": 0.05,
                               "alphabet": 10}))
    assert main(["bound", "--model", str(cfg), "--k", "1,2,3"]) == 0
    capsys.readouterr()
    assert main(["bound", "--model", str(cfg), "--k", "1,2,3,4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "hypotheses" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["window", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: genomask window")


def test_negative_runs_rejected(panel_file, capsys):
    for cmd in (["rate"], ["window", "--omega", "0,2"]):
        assert main(cmd + ["--panel", str(panel_file), "--k", "1",
                           "--runs", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --runs") and err.count("\n") == 1


@pytest.mark.parametrize("case", [
    "omega", "epsilon", "missing-panel", "string-probs", "instance-no-sets",
    "long-instance", "seed-gen-panel", "seed-mask", "seed-rate", "seed-window",
    "unwritable-gen-panel", "unwritable-rate", "unwritable-experiment",
    "unwritable-transcript", "alphabet-1", "alphabet-11", "panel-shape",
    "window-runs-explicit", "lp-json-alphabet-11", "nan-explicit",
    "nan-markov", "omega-past-n", "argparse-omega", "argparse-runs",
    "argparse-command", "argparse-missing", "prior-zero-mask"])
def test_malformed_input_exits_2_with_one_line(panel_file, tmp_path, capsys,
                                               case):
    probs = tmp_path / "explicit.json"
    probs.write_text(json.dumps({"type": "explicit", "n": 2,
                                 "probs": "0.25,0.25,0.25,0.25"}))
    explicit = tmp_path / "explicit-ok.json"
    explicit.write_text(json.dumps({"type": "explicit", "n": 3,
                                    "probs": [0.125] * 8}))
    # json writes float("nan") as NaN, which json.loads reads back
    nan_explicit = tmp_path / "nan-explicit.json"
    nan_explicit.write_text(json.dumps({"type": "explicit", "n": 2,
                                        "probs": [float("nan"), 0.25, 0.25,
                                                  0.5]}))
    nan_markov = tmp_path / "nan-markov.json"
    nan_markov.write_text(json.dumps({"type": "markov", "n": 3,
                                      "initial": [float("nan")] * 2,
                                      "transition": [[0.9, 0.1], [0.1, 0.9]]}))
    # a 2**30 space: omega is checked before it would be enumerated
    m30 = tmp_path / "m30.json"
    m30.write_text(json.dumps({"type": "markov", "n": 30, **_CHAIN}))
    panel2 = tmp_path / "panel2.txt"
    panel2.write_text("01\n10\n")
    hmm11 = tmp_path / "hmm11.json"
    hmm11.write_text(json.dumps({"type": "hmm", "panel_path": str(panel2),
                                 "epsilon": 0.1, "theta": 0.05,
                                 "alphabet": 11}))
    # longer than the OS path limit, and its sets miss element 3
    long_literal = json.dumps({"m": 3, "sets": [[1, 2]], "note": "x" * 5000})
    unwritable = str(tmp_path / "no-such-dir" / "out.txt")
    zero_panel = tmp_path / "zero.txt"          # no row starts with 1
    zero_panel.write_text("00\n01\n")
    panel = ["--panel", str(panel_file)]
    argv = {
        "omega": ["window", "--panel", str(panel_file), "--omega", "1,x"],
        "epsilon": ["experiment", "--name", "fig4", "--epsilon", "0.1,abc"],
        "missing-panel": ["rate", "--panel", str(tmp_path / "missing.txt")],
        "string-probs": ["rate", "--model", str(probs)],
        "instance-no-sets": ["hardness", "--instance", '{"m": 3}'],
        "long-instance": ["hardness", "--instance", long_literal],
        "seed-gen-panel": ["gen-panel", "--m", "2", "--n", "3", "--seed", "-1"],
        "seed-mask": ["mask", *panel, "--sample", "--seed", "-5"],
        "seed-rate": ["rate", *panel, "--runs", "5", "--seed", "-1"],
        "seed-window": ["window", *panel, "--omega", "1", "--runs", "5",
                        "--seed", "-1"],
        "unwritable-gen-panel": ["gen-panel", "--m", "2", "--n", "3",
                                 "--out", unwritable],
        "unwritable-rate": ["rate", *panel, "--out", unwritable],
        "unwritable-experiment": ["experiment", "--name", "hardness",
                                  "--runs", "1", "--out", unwritable],
        "unwritable-transcript": ["mask", *panel, "--sample",
                                  "--transcript", unwritable],
        "alphabet-1": ["gen-panel", "--m", "2", "--n", "3", "--alphabet", "1"],
        # a panel file holds one digit per symbol
        "alphabet-11": ["gen-panel", "--m", "2", "--n", "3",
                        "--alphabet", "11"],
        # the 6 x 8 panel is what would run, under rows labelled n = 5
        "panel-shape": ["experiment", "--name", "fig4", *panel, "--n", "5",
                        "--m", "6", "--runs", "2"],
        # the sampled estimator needs a hidden chain, which a table has not
        "window-runs-explicit": ["window", "--model", str(explicit), "--k",
                                 "1", "--omega", "1,2", "--runs", "10"],
        # (0, 10) would print as "010", the same text as (0, 1, 0)
        "lp-json-alphabet-11": ["lp", "--model", str(hmm11), "--k", "1",
                                "--json"],
        "nan-explicit": ["rate", "--model", str(nan_explicit)],
        "nan-markov": ["bound", "--model", str(nan_markov)],
        "omega-past-n": ["window", "--model", str(m30), "--k", "1",
                         "--omega", "31", "--runs", "0"],
        # errors argparse raises itself, not a usage block
        "argparse-omega": ["window", *panel, "--omega", "-1,3"],
        "argparse-runs": ["window", *panel, "--runs", "x"],
        "argparse-command": ["nosuch"],
        "argparse-missing": ["gen-panel", "--n", "3"],
        # refused before the zero-probability x would warn
        "prior-zero-mask": ["mask", "--panel", str(zero_panel), "--theta",
                            "0", "--x", "10", "--k", "1"],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_experiment_takes_its_shape_from_the_panel(panel_file, capsys):
    assert main(["experiment", "--name", "fig4", "--panel", str(panel_file),
                 "--epsilon", "0.1", "--theta", "0.05", "--runs", "4",
                 "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows and all((r["m"], r["n"]) == (6, 8) for r in rows)


@pytest.mark.parametrize("flags", [["--x", "01a10110"],
                                   ["--x", "0110 0110"],
                                   ["--sample", "--order", "1,a,3,4,5,6,7,8"]])
def test_mask_non_digit_input_rejected(panel_file, capsys, flags):
    assert main(["mask", "--panel", str(panel_file), "--k", "1"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# mostly binary digits, so that many draws are valid; the rest are other
# digits, the erasure, characters that pass str.isdigit but not
# str.isdecimal, a decimal digit of another script, letters and a space
_ODD_CHARS = list("23456789*") + ["\u00b2", "\u2460", "\u0663", "a", "Z", " "]


def _drawn_text(rng, length):
    return "".join(str(rng.integers(2)) if rng.random() < 0.85
                   else _ODD_CHARS[rng.integers(len(_ODD_CHARS))]
                   for _ in range(length))


def _assert_clean_exit(code, err):
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_long_configs_exit_with_one_line_before_any_product(tmp_path, capsys):
    # n = 20000 passes the config's n check, but its 2**20000 space used to
    # end the exact subcommands in a traceback while printing its size; a
    # two-entry table for n = 400000 took seconds to form its product
    chain, table = tmp_path / "chain.json", tmp_path / "table.json"
    chain.write_text(json.dumps({"type": "markov", "n": 20000,
                                 "initial": [0.5, 0.5],
                                 "transition": [[0.9, 0.1], [0.1, 0.9]]}))
    table.write_text(json.dumps({"type": "explicit", "n": 400000,
                                 "probs": [0.5, 0.5]}))
    for cfg, code, message in ((chain, 3, "n = 20000 positions exceeds budget"),
                               (table, 2, "n = 400000 positions")):
        for command in (["rate"], ["lp"], ["window", "--omega", "1"],
                        ["robustness", "--q-model", str(cfg)]):
            assert main(command + ["--model", str(cfg), "--k", "1"]) == code
            out, err = capsys.readouterr()
            assert out == "" and message in err, (command, err)
            _assert_clean_exit(code, err)


def test_hmm_alphabet_past_the_budget_exits_3_before_the_emissions(tmp_path,
                                                                   capsys):
    # a 10**15-symbol alphabet used to allocate the (n, alphabet, m)
    # emission stack and end in numpy's memory error; `HmmModel` now refuses
    # its (alphabet, alphabet) emission law; 11 symbols still run
    (tmp_path / "p2.txt").write_text("01\n10\n")
    for alphabet, code in ((10**15, 3), (11, 0)):
        cfg = tmp_path / f"hmm{alphabet}.json"
        cfg.write_text(json.dumps({"epsilon": 0.1, "theta": 0.05,
                                   "panel_path": "p2.txt",
                                   "alphabet": alphabet}))
        assert main(["bound", "--model", str(cfg), "--k", "1"]) == code
        out, err = capsys.readouterr()
        _assert_clean_exit(code, err)
        if code:
            assert out == "" and "emission law" in err, err
        else:
            assert out == "0.125958\n"


def test_text_and_config_inputs_exit_0_2_or_3_with_one_line(tmp_path, capsys):
    # panel lines, --x strings, masked strings and model configs up to
    # n = 10**30: a malformed one is exit 2 (or 3 past the memory budget)
    # with one error line, never a traceback
    binary = tmp_path / "binary.txt"
    binary.write_text("0110\n1011\n0010\n")
    commands = [["rate"], ["bound"], ["lp"], ["window", "--omega", "0,1"],
                ["mask", "--sample"],
                ["experiment", "--name", "fig4", "--runs", "2",
                 "--epsilon", "0.1", "--theta", "0.05"]]

    def cli(argv):
        code = main(argv)
        return code, capsys.readouterr().err

    @seeded_examples(40)
    def check(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        lines = [_drawn_text(rng, n) for _ in range(rng.integers(1, 4))]
        panel = tmp_path / f"panel{seed}.txt"
        panel.write_text("\n".join(lines) + "\n", encoding="utf-8")
        command = commands[seed % len(commands)]
        k = [] if command[0] == "experiment" else ["--k", "1"]
        _assert_clean_exit(*cli(command + ["--panel", str(panel)] + k))

        x = _drawn_text(rng, int(rng.integers(3, 6)))
        _assert_clean_exit(*cli(["mask", "--panel", str(binary), "--k", "1",
                                 "--x", x]))

        masked = _drawn_text(rng, int(rng.integers(0, 5)))
        try:
            parsed = MaskedSequence.parse(masked)
        except GenomaskError as exc:
            _assert_clean_exit(exc.exit_code, f"error: {exc}\n")
        else:
            assert parsed.text() == "".join(
                "*" if ch == "*" else str(int(ch)) for ch in masked.strip())

        kind = ("markov", "explicit")[seed % 2]
        sizes = ((0, 1, 4, 8_388_609, 10**30) if kind == "markov"
                 else (0, 1, 4, 10**30))
        size = sizes[int(rng.integers(len(sizes)))]
        cfg = {"type": kind, "n": size}
        if kind == "markov":
            cfg.update(initial=[0.4, 0.6], transition=[[0.9, 0.1], [0.3, 0.7]])
        else:
            entries = int(rng.choice([1, 2, 16]))
            cfg.update(probs=[1.0 / entries] * entries)
        path = tmp_path / f"model{seed}.json"
        path.write_text(json.dumps(cfg))
        if size <= 4:
            _assert_clean_exit(*cli(["bound", "--model", str(path),
                                     "--k", "1"]))
            return
        # a representable huge n would run its chain loop in a subcommand
        with pytest.raises(GenomaskError) as info:
            load_model_config(path)
        _assert_clean_exit(info.value.exit_code, f"error: {info.value}\n")

    check()


def _window_config(rng, tmp_path, seed):
    """An explicit, Markov or HMM config file with n <= 6 drawn from rng."""
    n = int(rng.integers(2, 7))
    kind = ("explicit", "markov", "hmm")[seed % 3]
    if kind == "explicit":
        alphabet = 3 if n <= 3 else 2
        cfg = {"type": "explicit", "n": n, "alphabet": alphabet,
               "probs": rng.dirichlet(np.ones(alphabet ** n)).tolist()}
    elif kind == "markov":
        cfg = {"type": "markov", "n": n,
               "initial": rng.dirichlet(np.ones(2)).tolist(),
               "transition": rng.dirichlet(np.ones(2), size=2).tolist()}
    else:
        panel = tmp_path / f"window-panel{seed}.txt"
        panel.write_text("".join(
            "".join(map(str, row)) + "\n"
            for row in rng.integers(2, size=(int(rng.integers(2, 5)), n))))
        cfg = {"panel_path": str(panel), "epsilon": float(rng.random()) / 2,
               "theta": float(rng.random()) / 4}
    path = tmp_path / f"window{seed}.json"
    path.write_text(json.dumps(cfg))
    return path, n


def test_window_command_exits_cleanly_and_matches_exact(tmp_path, capsys):
    # --k from 1, an interior position and n + 1; --omega from -1..n + 1,
    # a non-number and repeats; --runs 0 or 5
    @seeded_examples(30)
    def check(seed):
        rng = np.random.default_rng([seed, 24])
        path, n = _window_config(rng, tmp_path, seed)
        # mostly valid draws, so that about half the examples run
        k_pool = [1, int(rng.integers(2, n)) if n > 2 else 2, n + 1]
        ks = sorted({int(v) for v in rng.choice(
            k_pool, size=int(rng.integers(1, 3)), p=[0.45, 0.45, 0.1])})
        omegas = [str(rng.integers(n + 1)) if rng.random() < 0.85
                  else str(rng.choice([-1, n + 1, "x"]))
                  for _ in range(int(rng.integers(1, 5)))]
        runs = int(rng.choice([0, 5], p=[0.7, 0.3]))
        # "=" keeps argparse from reading a leading "-1" as an option
        code = main(["window", "--model", str(path),
                     "--k", ",".join(map(str, ks)),
                     f"--omega={','.join(omegas)}", "--runs", str(runs),
                     "--seed", str(seed), "--json"])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (code, err)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["omega"] for r in rows] == [int(w) for w in omegas]
        if runs:
            return
        model = load_model_config(path)
        K = [k - 1 for k in ks]
        by_omega = {}
        for r in rows:
            assert r["leakage"] == window_leakage_exact(model, K, r["omega"])
            by_omega[r["omega"]] = r["leakage"]
        leak = [by_omega[w] for w in sorted(by_omega)]
        assert all(b <= a + 1e-12 for a, b in zip(leak, leak[1:])), leak

    check()


def test_rate_command_exits_cleanly_and_matches_exact(tmp_path, capsys):
    # --runs from -1, 0, 5 and a non-number; --order valid, a repeat or
    # absent; --k inside and outside 1..n
    @seeded_examples(30)
    def check(seed):
        rng = np.random.default_rng([seed, 26])
        path, n = _window_config(rng, tmp_path, seed)
        ks = sorted({int(v) for v in rng.choice(
            [1, int(rng.integers(1, n + 1)), 0, n + 1],
            size=int(rng.integers(1, 3)), p=[0.45, 0.45, 0.05, 0.05])})
        runs = str(rng.choice(["-1", "0", "5", "x"], p=[0.1, 0.6, 0.2, 0.1]))
        order = [int(v) + 1 for v in rng.permutation(n)]
        if rng.random() < 0.2:
            order[0] = order[-1]
        order_args = (["--order", ",".join(map(str, order))]
                      if rng.random() < 0.6 else [])
        # "=" keeps argparse from reading a leading "-1" as an option
        code = main(["rate", "--model", str(path),
                     "--k", ",".join(map(str, ks)), f"--runs={runs}",
                     "--seed", str(seed), "--json"] + order_args)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (code, err)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        payload = json.loads(out)
        assert payload["runs"] == int(runs) and payload["stderr"] >= 0
        if runs == "0":
            ordering = (Ordering(tuple(v - 1 for v in order))
                        if order_args else None)
            assert payload["rate"] == achievable_rate_exact(
                load_model_config(path), [k - 1 for k in ks], ordering)

    check()


def test_bound_command_exits_cleanly(tmp_path, capsys, monkeypatch):
    # HMM configs with an alphabet on either side of the emission-law
    # check, which a 288-byte budget puts at 6 symbols on these panels
    # (at most 160 bytes each); --k lists inside and outside 1..n, empty,
    # non-numeric and the separate "--k -1,3", which argparse refuses;
    # missing config and panel paths
    monkeypatch.setattr(distributions, "BELIEF_BUDGET_BYTES", 8 * 6 * 6)

    @seeded_examples(30)
    def check(seed):
        rng = np.random.default_rng([seed, 29])
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        panel = tmp_path / f"bound-panel{seed}.txt"
        panel.write_text("".join("".join(map(str, row)) + "\n" for row in
                                 rng.integers(2, size=(m, n))))
        alphabet = int(rng.choice([2, 5, 6, 7, 9, 10**15]))
        missing = str(rng.choice(["", "", "", "", "config", "panel"]))
        cfg = tmp_path / f"bound{seed}.json"
        cfg.write_text(json.dumps({
            "epsilon": 0.1, "theta": 0.05, "alphabet": alphabet,
            "panel_path": str(panel) + "x" * (missing == "panel")}))
        cfg_arg = str(cfg) + "x" * (missing == "config")
        k = str(rng.choice(["1", str(n), f"1,{n}", "0", str(n + 1), "x",
                            "", "-1,3"]))
        code = main(["bound", "--model", cfg_arg, "--k", k])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (code, err)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert out == "", out
        if k == "-1,3" or missing:
            assert code == 2, (k, missing, err)
        elif alphabet > 6:
            assert code == 3 and "emission law" in err, err
        elif k in ("1", str(n), f"1,{n}"):
            assert code == 0 and 0.0 <= float(out) <= 1.0, (code, err, out)
        else:
            assert code == 2, (k, err)

    check()


def test_lp_command_exits_cleanly(tmp_path, capsys):
    # argv drawn for `lp` over HMM panels given directly or through a
    # config; each draw breaks at most one piece: --k outside 1..n, empty,
    # non-numeric or the separate "--k -1,3"; a missing config or panel
    # path; a ragged panel or one with a non-digit.  A broken draw exits 2
    # with one line and prints nothing to stdout; the rest print an
    # optimal rate no larger than the converse bound
    def pick(rng, options):
        return options[int(rng.integers(len(options)))]

    @seeded_examples(60)
    def check(seed):
        rng = np.random.default_rng([seed, 33])
        n = int(rng.integers(2, 5))
        fault = pick(rng, ["", "", "", "", "k", "config", "panel", "ragged",
                           "digit"])
        rows = ["".join(map(str, row)) for row in
                rng.integers(2, size=(int(rng.integers(2, 4)), n))]
        if fault == "ragged":
            rows[-1] = rows[-1][:-1]
        elif fault == "digit":
            rows[0] = "a" + rows[0][1:]
        panel = tmp_path / f"lp-panel{seed}.txt"
        panel.write_text("".join(row + "\n" for row in rows))
        panel_arg = str(panel) + "x" * (fault == "panel")
        if fault == "config" or rng.integers(2):
            cfg = tmp_path / f"lp{seed}.json"
            cfg.write_text(json.dumps({"epsilon": 0.1, "theta": 0.05,
                                       "panel_path": panel_arg}))
            model_args = ["--model", str(cfg) + "x" * (fault == "config")]
        else:
            model_args = ["--panel", panel_arg, "--epsilon", "0.1",
                          "--theta", "0.05"]
        k = pick(rng, ["0", str(n + 1), "x", "", "-1,3"] if fault == "k"
                 else ["1", str(n), f"1,{n}"])
        argv = ["lp", *model_args, "--k", k]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert out == "", out
        assert code == (2 if fault else 0), (argv, code, err)
        if not code:
            rate, status = out.split()
            model = HmmModel(np.array([[int(c) for c in row] for row in rows]),
                             0.1, 0.05)
            bound = upper_bound_rate(model,
                                     [int(v) - 1 for v in k.split(",")])
            assert status == "(optimal)" and 0.0 <= float(rate), out
            assert float(rate) <= bound + 1e-6, (out, bound)
        faults.append(f"k {k}" if fault == "k" else fault)

    faults = []
    check()
    assert faults.count("") >= 15 and "k -1,3" in faults, faults
    assert {"config", "panel", "ragged", "digit"} <= set(faults), faults


def test_mask_command_exits_cleanly(tmp_path, capsys):
    # argv drawn for `mask`, which runs the lockstep loop on a chain in the
    # linear order and the enumeration otherwise, over panels and Markov
    # configs; each draw breaks at most one piece: a missing model path;
    # --k outside 1..n, empty, non-numeric or the separate "--k -1,3"; --x
    # short, non-digit, past the binary alphabet, or neither --x nor
    # --sample; a malformed order; a negative or non-numeric seed; a
    # transcript in a missing directory.  A broken draw exits 2 with one
    # line and prints nothing to stdout; the rest mask faithfully
    def pick(rng, options):
        return options[int(rng.integers(len(options)))]

    @seeded_examples(40)
    def check(seed):
        rng = np.random.default_rng([seed, 31])
        n = int(rng.integers(2, 6))
        valid = "".join(map(str, rng.integers(2, size=n)))
        fault = pick(rng, ["", "", "", "", "model", "k", "x", "order", "seed",
                           "transcript"])
        if rng.integers(2):
            source = tmp_path / f"mask-panel{seed}.txt"
            source.write_text("".join("".join(map(str, row)) + "\n" for row in
                                      rng.integers(2, size=(3, n))))
            model_args = ["--panel", str(source), "--epsilon", "0.1",
                          "--theta", "0.05"]
        else:
            source = tmp_path / f"mask-chain{seed}.json"
            source.write_text(json.dumps({"type": "markov", "n": n,
                                          **_CHAIN}))
            model_args = ["--model", str(source)]
        if fault == "model":
            model_args[1] += "x"
        k = pick(rng, ["0", str(n + 1), "x", "", "-1,3"] if fault == "k"
                 else ["1", str(n), f"1,{n}"])
        x_args = pick(rng, [["--x", valid[1:]], ["--x", "a" + valid[1:]],
                            ["--x", "2" + valid[1:]], []] if fault == "x"
                      else [["--x", valid], ["--sample"]])
        order_args = pick(rng, [["--order", ",".join(["1"] * n)],
                                ["--order", "x"]] if fault == "order"
                          else [[], [], ["--order", ",".join(
                              map(str, range(n, 0, -1)))]])
        seed_arg = pick(rng, ["-1", "x"] if fault == "seed" else ["0", "7"])
        path = tmp_path / (f"no-such-dir/t{seed}.jsonl"
                           if fault == "transcript" else f"t{seed}.jsonl")
        transcript = fault == "transcript" or bool(rng.integers(2))
        argv = ["mask", *model_args, "--k", k, *x_args, *order_args,
                "--seed", seed_arg] + (["--transcript", str(path)]
                                       if transcript else [])
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert out == "", out
        assert code == (2 if fault else 0), (argv, code, err)
        if not code:
            masked = MaskedSequence.parse(out.strip())
            assert len(masked) == n and all(
                masked.symbols[int(v) - 1] == STAR for v in k.split(",")), out
            if x_args[0] == "--x":
                assert masked.is_faithful_to([int(c) for c in valid]), out
            if transcript:
                assert len(path.read_text().splitlines()) == n
        faults.append(fault)

    faults = []
    check()
    assert faults.count("") >= 10 and len(set(faults)) == 7, faults


def test_experiment_command_exits_cleanly(tmp_path, capsys):
    # argv drawn for `experiment` over every --name with small --n, --m and
    # --runs (fig3 around an interior --k), the shape given directly or by
    # a --panel; each draw breaks at most one piece: --epsilon or --theta
    # not a number list, --omega outside 0..n or not a number, --k outside
    # 1..n, or the panel path missing, ragged or with a non-digit.  A
    # broken draw exits 2 with one line and prints nothing to stdout; the
    # rest print a header and rows for the drawn grid
    def pick(rng, options):
        return options[int(rng.integers(len(options)))]

    @seeded_examples(60)
    def check(seed):
        rng = np.random.default_rng([seed, 23])
        name = pick(rng, ["fig3", "fig3", "fig4", "fig5", "robustness",
                          "hardness"])
        n, m = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        fault = pick(rng, ["", "", "", "", "epsilon", "theta", "omega", "k",
                           "panel", "ragged", "digit"])
        k = pick(rng, ["0", str(n + 1), "x"] if fault == "k" else
                 [str(int(rng.integers(2, n)))] if name == "fig3" else
                 ["1", str(min(n, 5)), f"1,{min(n, 5)}"])
        epsilon, theta = pick(rng, ["0.1", "0.1,0.3"]), "0.05"
        if fault == "epsilon":
            epsilon = pick(rng, ["x", "", "0.1;0.2"])
        elif fault == "theta":
            theta = pick(rng, ["x", "", "0.1;0.2"])
        omega = (pick(rng, ["-1", str(n + 1), "x"]) if fault == "omega"
                 else ",".join(map(str, rng.integers(n + 1, size=2))))
        # "=" keeps argparse from reading "-1" as an option; no --omega
        # takes the default grid up to n
        omega_args = ([f"--omega={omega}"] if fault == "omega"
                      or rng.integers(2) else [])
        argv = ["experiment", "--name", name, "--k", k, "--epsilon", epsilon,
                "--theta", theta, *omega_args,
                "--runs", str(int(rng.integers(1, 12))), "--seed", str(seed)]
        if fault in ("panel", "ragged", "digit") or rng.integers(2):
            rows = ["".join(map(str, row))
                    for row in rng.integers(2, size=(m, n))]
            if fault == "ragged":
                rows[-1] = rows[-1][:-1]
            elif fault == "digit":
                rows[0] = "a" + rows[0][1:]
            panel = tmp_path / f"experiment-panel{seed}.txt"
            panel.write_text("".join(row + "\n" for row in rows))
            argv += ["--panel", str(panel) + "x" * (fault == "panel")]
        else:
            argv += ["--n", str(n), "--m", str(m)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert out == "", out
        assert code == (2 if fault else 0), (argv, code, err)
        if not code:
            rows = out.splitlines()
            assert rows[0] == ",".join(CSV_COLUMNS) and len(rows) > 1, out
            names.append(name)
        faults.append(fault)

    faults, names = [], []
    check()
    assert len(set(faults)) == 8, faults
    assert len(set(names)) == 5 and names.count("fig3") >= 3, names
