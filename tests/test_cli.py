"""End-to-end command-line pipeline on a micro dataset."""

import dataclasses
import json

import pytest

from coldbundle import pipeline
from coldbundle.checkpoint import load_checkpoint, save_checkpoint
from coldbundle.cli import build_parser, main
from coldbundle.config import RunConfig, field_bound

MICRO = [
    "--synth-users", "30", "--synth-items", "40", "--synth-bundles", "12",
    "--synth-groups", "2", "--synth-bundle-size", "4", "--synth-affinity", "0.4",
    "--d", "8", "--K", "2", "--T", "10", "--T-prime", "4", "--top-n", "2",
    "--d-c", "8", "--d-time", "8",
    "--stage1-epochs", "3", "--stage1-batch", "256", "--stage1-patience", "3",
    "--cond-epochs", "2", "--diff-epochs", "4", "--stage3-epochs", "2",
]


def _run(out, *args):
    return main(["--out", str(out), *MICRO, *args])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert _run(out, "synth") == 0
    assert _run(out, "split") == 0
    assert _run(out, "train", "all") == 0
    return out


def test_stats_and_manifest(trained):
    assert _run(trained, "stats") == 0
    stats = json.loads((trained / "stats.json").read_text())
    assert stats["n_bundles"] == 12
    manifest = json.loads((trained / "manifest.json").read_text())
    assert "config" in manifest


def test_eval_and_ablations(trained):
    assert _run(trained, "eval") == 0
    report = json.loads((trained / "metrics.json").read_text())
    assert report["k"] == 20
    assert 0.0 <= report["recall_at_k"] <= 1.0
    for flag, name in (("--no-aug", "metrics_no_aug.json"),
                       ("--no-moe", "metrics_no_moe.json"),
                       ("--no-diff", "metrics_no_diff.json")):
        assert _run(trained, "eval", flag) == 0
        assert (trained / name).exists()


def test_hits_gates_project(trained):
    assert _run(trained, "hits") == 0
    lines = (trained / "hits.csv").read_text().strip().splitlines()
    assert lines[0] == "situation,hits"
    assert _run(trained, "gates") == 0
    header = (trained / "gates.csv").read_text().splitlines()[0]
    assert header == "entity_class,id,view,w_embed,w_diff"
    assert _run(trained, "project", "--table", "bundle_diff") == 0
    assert (trained / "projection.csv").exists()


def test_eval_before_train_is_ordering_error(tmp_path):
    out = tmp_path / "fresh"
    assert _run(out, "synth") == 0
    assert _run(out, "eval") == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_key": 1}')
    rc = main(["--out", str(tmp_path / "o"), "--config", str(cfg), "synth"])
    assert rc == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"synth_users": 30, "synth_items": 40, "synth_bundles": 12,'
                   ' "synth_groups": 2, "synth_bundle_size": 4}')
    out = tmp_path / "o"
    rc = main(["--out", str(out), "--config", str(cfg), "--synth-users", "25", "synth"])
    assert rc == 0
    catalog = json.loads((out / "data" / "catalog.json").read_text())
    assert catalog["n_users"] == 25


def test_ingest_subcommand(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "user_bundle.tsv").write_text("10\t1\n11\t1\n")
    (raw / "user_item.tsv").write_text("10\t5\n11\t6\n")
    (raw / "bundle_item.tsv").write_text("1\t5\n1\t6\n")
    out = tmp_path / "o"
    assert main(["--out", str(out), "ingest", "--raw", str(raw)]) == 0
    catalog = json.loads((out / "data" / "catalog.json").read_text())
    assert catalog == {"n_bundles": 1, "n_items": 2, "n_users": 2}


@pytest.mark.parametrize("bad", ["user_bundle.tsv", "user_item.tsv", "bundle_item.tsv"])
@pytest.mark.parametrize("command", ["ingest", "split"])
def test_tsv_byte_that_is_not_utf8_exits_1(tmp_path, capsys, bad, command):
    """A TSV byte that is not UTF-8 exits 1 with one error line naming the
    file and line, through `ingest --raw` and through `--data-dir` loading."""
    src = tmp_path / "tsv"
    src.mkdir()
    for name in ("user_bundle.tsv", "user_item.tsv", "bundle_item.tsv"):
        (src / name).write_bytes(b"1\t2\n")
    (src / bad).write_bytes(b"1\t2\n1\t\xff\n")
    out = tmp_path / "o"
    argv = (["ingest", "--raw", str(src)] if command == "ingest"
            else ["--data-dir", str(src), "split"])
    capsys.readouterr()
    assert main(["--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{src / bad}:2: byte 0xff is not UTF-8" in err and "Traceback" not in err


def test_scenario_mismatch_is_contract_error(trained):
    rc = _run(trained, "--scenario", "warm_start", "split")
    assert rc == 2


def test_malformed_checkpoint_header_exits_2(tmp_path):
    out = tmp_path / "o"
    assert _run(out, "synth") == 0
    (out / "stage1.ckpt").write_bytes(b"CBCK1\n" + (5).to_bytes(8, "little") + b'{"config":{}}')
    assert _run(out, "train", "2") == 2


def test_checkpoint_missing_tensor_exits_2(trained, capsys):
    ckpt = trained / "stage3.ckpt"
    original = ckpt.read_bytes()
    ck = load_checkpoint(ckpt)
    del ck.tensors["w_out_noaug"]
    save_checkpoint(ckpt, ck.stage, ck.config, ck.tensors)
    try:
        assert _run(trained, "eval") == 2
    finally:
        ckpt.write_bytes(original)
    assert "w_out_noaug" in capsys.readouterr().err


@pytest.mark.parametrize("command,stage", [(("train", "2"), "stage1"),
                                           (("train", "3"), "stage1"),
                                           (("eval",), "stage3")])
def test_checkpoint_of_other_d_and_K_exits_2(trained, capsys, command, stage):
    """A run directory trained with d 8 and K 2 is not reused under d 4 and
    K 5: the first checkpoint read is refused, naming both keys."""
    before = {p.name: p.read_bytes() for p in trained.glob("stage*.ckpt")}
    capsys.readouterr()
    assert _run(trained, "--d", "4", "--K", "5", *command) == 2
    err = capsys.readouterr().err
    assert f"{stage}.ckpt was trained with d=8, K=2; the config asks for d=4, K=5" in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in trained.glob("stage*.ckpt")} == before


def test_stage2_checkpoint_of_other_d_exits_2(trained, capsys):
    """Stage 3 also reads the stage-2 header: a stage2.ckpt that claims
    another d is refused even when stage1.ckpt agrees."""
    ckpt = trained / "stage2.ckpt"
    original = ckpt.read_bytes()
    ck = load_checkpoint(ckpt)
    save_checkpoint(ckpt, ck.stage, {**ck.config, "d": 4}, ck.tensors)
    capsys.readouterr()
    try:
        assert _run(trained, "train", "3") == 2
    finally:
        ckpt.write_bytes(original)
    assert "stage2.ckpt was trained with d=4; the config asks for d=8" in capsys.readouterr().err


@pytest.mark.parametrize("flag,command,stage,key,was,asked", [
    ("--stage1-lr", ("train", "2"), "stage1", "stage1_lr", 0.05, 0.1),
    ("--top-n", ("train", "3"), "stage2", "top_n", 2, 3),
    ("--eta", ("eval",), "stage3", "eta", None, 0.9),
])
def test_changed_stage_key_exits_2(trained, capsys, flag, command, stage, key, was, asked):
    """A run directory is not reused under another value of a key that a
    stage's training read: the checkpoint is refused, naming the key, and
    no checkpoint is rewritten."""
    before = {p.name: p.read_bytes() for p in trained.glob("stage*.ckpt")}
    capsys.readouterr()
    assert _run(trained, flag, str(asked), *command) == 2
    err = capsys.readouterr().err
    assert (f"{stage}.ckpt was trained with {key}={was!r}; "
            f"the config asks for {key}={asked!r}") in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in trained.glob("stage*.ckpt")} == before


@pytest.mark.parametrize("stage,edits,command", [
    ("stage1", {"stage1_batch": 128}, ("train", "2")),
    ("stage2", {"diff_lr": 0.5, "T_prime": 3}, ("train", "3")),
    ("stage3", {"beta_alpha": 0.5}, ("eval",)),
    ("stage3", {"stage1_epochs": 9, "schedule": "cosine"}, ("eval",)),
])
def test_checkpoint_with_stale_stage_keys_exits_2(trained, capsys, stage, edits, command):
    """A checkpoint whose header disagrees with the config on its own
    stage's keys, or on an earlier stage's, is refused and every stale key
    is named."""
    ckpt = trained / f"{stage}.ckpt"
    original = ckpt.read_bytes()
    ck = load_checkpoint(ckpt)
    save_checkpoint(ckpt, ck.stage, {**ck.config, **edits}, ck.tensors)
    capsys.readouterr()
    try:
        assert _run(trained, *command) == 2
    finally:
        ckpt.write_bytes(original)
    err = capsys.readouterr().err
    assert f"{stage}.ckpt was trained with " in err
    for key, value in edits.items():
        assert f"{key}={value!r}" in err
    assert "Traceback" not in err


BAD_CONFIG = [
    ("--stage1-batch", "0"), ("--diff-batch", "0"), ("--stage3-batch", "0"),
    ("--stage3-batch", "-5"), ("--eta", "nan"), ("--eta", "inf"),
    ("--beta-alpha", "inf"), ("--beta-alpha", "20"), ("--beta-alpha", "nan"),
    ("--stage1-lr", "nan"), ("--stage1-lr", "-0.5"), ("--cond-lr", "inf"),
    ("--diff-lr", "nan"), ("--stage3-lr", "-0.5"), ("--stage1-weight-decay", "nan"),
    ("--stage1-weight-decay", "-0.5"), ("--eta", "1e9"), ("--eta", "10.5"),
    ("--T", "1"), ("--T-prime", "11"), ("--d-time", "7"),
    ("--stage1-epochs", "-2"), ("--stage1-epochs", "0"), ("--stage1-patience", "0"),
    ("--cond-epochs", "0"), ("--diff-epochs", "0"), ("--stage3-epochs", "-1"),
    ("--stage3-epochs", "0"), ("--synth-bundle-size", "-3"), ("--synth-bundle-size", "0"),
    ("--synth-groups", "1"), ("--synth-affinity", "5"), ("--synth-affinity", "nan"),
    ("--synth-affinity", "0"), ("--synth-affinity", "-0.1"),
    ("--diff-hidden", "-3"), ("--diff-hidden", "0"), ("--synth-users", "0"),
    ("--synth-items", "-1"), ("--synth-bundles", "0"),
    ("--config", '{"d": "x"}'), ("--config", '{"d": 1.5}'), ("--config", '{"d": true}'),
    ("--config", '{"seed": null}'), ("--config", '{"eta": "0.5"}'),
    ("--config", '{"scenario": 3}'), ("--config", '{"seed": 3,'), ("--config", "[1]"),
]


@pytest.mark.parametrize("flag,value", BAD_CONFIG)
def test_bad_config_value_exits_2(tmp_path, capsys, time_limit, flag, value):
    """Values that used to crash or hang a stage, leave it silently
    untrained, or fail it with an error that names no setting, and config
    files that are not a JSON object, are refused up front; a refused
    flag's field is named."""
    if flag == "--config":
        # The file alone: MICRO's --d would override its value.
        (tmp_path / "cfg.json").write_text(value)
        args = ["--out", str(tmp_path / "o"), "--config", str(tmp_path / "cfg.json")]
    else:
        args = ["--out", str(tmp_path / "o"), *MICRO, flag, value]
    with time_limit(30):
        rc = main([*args, "train", "all"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "Traceback" not in err
    if flag != "--config":
        assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("edge", [("--diff-hidden", "1"), ("--T", "2", "--T-prime", "2"),
                                  ("--d-time", "2"), ("--top-n", "1")], ids=" ".join)
def test_admitted_edges_train_and_eval(tmp_path, time_limit, edge):
    """A value at the edge of its bound runs every stage."""
    out = tmp_path / "o"
    with time_limit(60):
        assert _run(out, *edge, "train", "all") == 0
        assert _run(out, *edge, "eval") == 0


def test_help_prints_every_bound():
    text = " ".join(build_parser().format_help().split())
    for f in dataclasses.fields(RunConfig):
        bound = field_bound(f)
        if bound is not None:
            assert f"config key {f.name} in {bound} (default: {f.default})" in text
    assert "config key diff_hidden in [1, inf) (default: None)" in text


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def allocate(*args):
        raise MemoryError("Unable to allocate 29.8 GiB for an array")
    monkeypatch.setattr(pipeline, "synth_blockmodel", allocate)
    assert main(["--out", str(tmp_path / "o"), "synth"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 29.8 GiB for an array\n"


def _truncate_labels(out):
    path = out / "split" / "labels.json"
    path.write_text(path.read_text()[:-5])


def _edit_json(path, **changes):
    """Rewrite a run-directory JSON file; a value None drops its key."""
    def damage(out):
        obj = json.loads((out / path).read_text())
        obj.update(changes)
        (out / path).write_text(json.dumps({k: v for k, v in obj.items() if v is not None}))
    return damage


@pytest.mark.parametrize("damage,needle", [
    (_truncate_labels, "labels.json"),
    (_edit_json("split/labels.json", scenario="nope"), "nope"),
    (_edit_json("data/catalog.json", n_bundles=None), "n_bundles"),
    (_edit_json("data/catalog.json", n_bundles="12"), "catalog.json"),
    (_edit_json("manifest.json", artifacts=[]), "manifest.json"),
])
def test_damaged_run_directory_json_exits_2(tmp_path, capsys, time_limit, damage, needle):
    out = tmp_path / "o"
    assert _run(out, "split") == 0
    damage(out)
    capsys.readouterr()
    with time_limit(30):
        assert _run(out, "stats") == 2
    err = capsys.readouterr().err
    assert "error:" in err and needle in err and "Traceback" not in err

