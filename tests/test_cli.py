import json

import numpy as np
import pytest

from genomask import (
    GenomaskError,
    MaskedSequence,
    STAR,
    distributions,
    load_model_config,
    load_panel,
)
from genomask.cli import main
from genomask.distributions import HmmModel
from genomask.experiments import CSV_COLUMNS
from genomask.mechanism import EnumeratedMechanism

from conftest import replayed_ratios
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
    "nan-markov"])
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
    panel2 = tmp_path / "panel2.txt"
    panel2.write_text("01\n10\n")
    hmm11 = tmp_path / "hmm11.json"
    hmm11.write_text(json.dumps({"type": "hmm", "panel_path": str(panel2),
                                 "epsilon": 0.1, "theta": 0.05,
                                 "alphabet": 11}))
    # longer than the OS path limit, and its sets miss element 3
    long_literal = json.dumps({"m": 3, "sets": [[1, 2]], "note": "x" * 5000})
    unwritable = str(tmp_path / "no-such-dir" / "out.txt")
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
