"""CLI commands (small in-process runs)."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


SMALL = ["--users", "2", "--days", "5", "--seed", "3"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_lab_command(capsys):
    code, out = run(capsys, "lab")
    assert code == 0
    assert "chrome" in out
    assert "push library" in out


def test_generate_and_reload(tmp_path, capsys):
    out_file = str(tmp_path / "study.npz")
    code, out = run(capsys, "generate", *SMALL, "--out", out_file)
    assert code == 0
    assert "wrote" in out
    code, out = run(capsys, "figure", "1", "--dataset", out_file)
    assert code == 0
    assert "Figure 1" in out


def test_figure_commands(capsys):
    for number, marker in [("1", "Figure 1"), ("3", "Figure 3"), ("6", "Figure 6")]:
        code, out = run(capsys, "figure", number, *SMALL)
        assert code == 0
        assert marker in out


def test_figure_5_for_app(capsys):
    code, out = run(capsys, "figure", "5", "--app", "com.android.chrome", *SMALL)
    assert code == 0
    assert "Figure 5" in out


def test_table_1(capsys):
    code, out = run(capsys, "table", "1", *SMALL)
    assert code == 0
    assert "Table 1" in out


def test_whatif_command(capsys):
    code, out = run(capsys, "whatif", "--app", "com.sec.spp.push", *SMALL)
    assert code == 0
    assert "Table 2" in out
    assert "affected-days" in out


def test_recommend_command(capsys):
    code, out = run(capsys, "recommend", "--top", "5", *SMALL)
    assert code == 0
    assert "recommendation" in out


def test_longitudinal_command(capsys):
    code, out = run(capsys, "longitudinal", *SMALL)
    assert code == 0
    assert "Weekly background energy" in out
    assert "fluctuation" in out


def test_coalesce_command(capsys):
    code, out = run(capsys, "coalesce", "--period", "900", *SMALL)
    assert code == 0
    assert "energy saved" in out


def test_summary_command(capsys):
    code, out = run(capsys, "summary", *SMALL)
    assert code == 0
    assert "Per-user trace summary" in out
    assert "Traffic by app category" in out


def test_scenario_flag(capsys):
    code, out = run(capsys, "figure", "1", "--scenario", "smoke")
    assert code == 0
    assert "Figure 1" in out


def test_model_flag(capsys):
    code, out = run(capsys, "table", "1", "--model", "umts", *SMALL)
    assert code == 0
    assert "Table 1" in out


def test_import_command(tmp_path, capsys):
    packets = tmp_path / "p.csv"
    events = tmp_path / "e.csv"
    packets.write_text(
        "timestamp,size,direction,app,conn\n1.0,100,down,com.a,1\n"
    )
    events.write_text(
        "timestamp,kind,app,value\n0.5,process,com.a,foreground\n"
    )
    out_file = str(tmp_path / "imported.npz")
    code, out = run(capsys, "import", f"{packets}:{events}", "--out", out_file)
    assert code == 0
    assert "wrote" in out
    code, out = run(capsys, "figure", "1", "--dataset", out_file)
    assert code == 0


def test_app_command(capsys):
    code, out = run(capsys, "app", "--app", "com.sec.spp.push", *SMALL)
    assert code == 0
    assert "com.sec.spp.push" in out
    assert "recommendation:" in out


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A saved study and a finished ingest checkpoint over it."""
    root = tmp_path_factory.mktemp("cli_ck")
    study = str(root / "study.npz")
    ck = str(root / "ck.npz")
    assert main(["generate", *SMALL, "--out", study]) == 0
    assert main(["ingest", "--dataset", study, "--checkpoint", ck]) == 0
    return study, ck


def test_from_checkpoint_byte_identical(checkpointed, capsys):
    study, ck = checkpointed
    capsys.readouterr()
    for batch_argv, ck_argv in [
        (["figure", "3", "--dataset", study], ["figure", "fig3", "--from-checkpoint", ck]),
        (["figure", "1", "--dataset", study], ["figure", "1", "--from-checkpoint", ck]),
        (["table", "1", "--dataset", study], ["table", "table1", "--from-checkpoint", ck]),
    ]:
        code, batch_out = run(capsys, *batch_argv)
        assert code == 0
        code, ck_out = run(capsys, *ck_argv)
        assert code == 0
        assert ck_out == batch_out


def test_headlines_from_checkpoint_match_batch_values(checkpointed, capsys):
    study, ck = checkpointed
    capsys.readouterr()
    code, batch_out = run(capsys, "headlines", "--dataset", study)
    assert code == 0
    code, ck_out = run(capsys, "headlines", "--from-checkpoint", ck)
    assert code == 0
    # The checkpoint renders the totals-tier headlines; each line must
    # appear in the batch output with the identical measured value
    # (column padding differs because batch has more rows).
    batch_lines = {" ".join(l.split()) for l in batch_out.splitlines()}
    ck_lines = [
        " ".join(l.split())
        for l in ck_out.splitlines()
        if "background states" in l
    ]
    assert len(ck_lines) == 2
    for line in ck_lines:
        assert line in batch_lines


def test_per_packet_figure_from_checkpoint_fails_typed(checkpointed, capsys):
    _, ck = checkpointed
    code = main(["figure", "4", "--from-checkpoint", ck])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "figure 4 needs per-packet arrays" in captured.err
    assert "without --from-checkpoint" in captured.err
    code = main(["table", "2", "--from-checkpoint", ck])
    captured = capsys.readouterr()
    assert code == 3
    assert "table 2 needs per-packet arrays" in captured.err


def test_whatif_from_checkpoint_fails_typed(checkpointed, capsys):
    """Counterfactual policies need packets; a totals checkpoint must
    refuse with the typed exit code, for the generic engine path too."""
    _, ck = checkpointed
    for argv in (
        ["whatif", "--from-checkpoint", ck],
        ["whatif", "--policy", "frequency-cap", "--from-checkpoint", ck],
        ["coalesce", "--from-checkpoint", ck],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "per-packet arrays" in captured.err
        assert "without --from-checkpoint" in captured.err


def test_whatif_policy_flag(capsys):
    code, out = run(
        capsys, "whatif", "--policy", "doze",
        "--param", "screen_off_threshold=1800", *SMALL,
    )
    assert code == 0
    assert "Policy doze(" in out
    assert "screen_off_threshold=1800" in out
    assert "energy saved" in out


def test_whatif_policy_with_app_detail(capsys):
    code, out = run(
        capsys, "whatif", "--policy", "deadline", "--app",
        "com.sec.spp.push", *SMALL,
    )
    assert code == 0
    assert "Policy deadline(" in out
    # Per-app columns use the last name component, like Table 2.
    assert "push" in out
    assert "packets delayed" in out


def test_whatif_rejects_bad_param(capsys):
    code = main(["whatif", "--policy", "kill", "--param", "bogus=1", *SMALL])
    captured = capsys.readouterr()
    assert code == 2
    assert "bogus" in captured.err


def test_table2_policy_flag_renders_end_to_end(capsys):
    code, out = run(
        capsys, "table", "2", "--policy", "kill", "--model", "nr", *SMALL
    )
    assert code == 0
    assert "Policy kill(" in out
    assert "on nr" in out
    assert "per-app effect" in out
    assert "energy saved" in out


def test_report_from_checkpoint_is_totals_tier(checkpointed, capsys):
    _, ck = checkpointed
    code, out = run(capsys, "report", "--from-checkpoint", ck)
    assert code == 0
    for marker in ("Figure 1", "Figure 2", "Figure 3", "Table 1"):
        assert marker in out
    assert "Figure 4" not in out
    assert "totals-tier report from checkpoint" in out


def test_ingest_no_cadence_table1_fails_typed(tmp_path, capsys):
    study = str(tmp_path / "study.npz")
    ck = str(tmp_path / "ck.npz")
    assert main(["generate", *SMALL, "--out", study]) == 0
    assert main(
        ["ingest", "--dataset", study, "--checkpoint", ck, "--no-cadence"]
    ) == 0
    capsys.readouterr()
    code = main(["table", "1", "--from-checkpoint", ck])
    captured = capsys.readouterr()
    assert code == 3
    assert "cadence" in captured.err


def test_ingest_malformed_csv_exits_bad_input(tmp_path, capsys):
    from repro.cli import EXIT_BAD_INPUT

    packets = tmp_path / "p.csv"
    packets.write_text(
        "timestamp,size,direction,app,conn\n"
        "1.0,100,down,a.one,1\n"
        "2.0,-5,down,a.one,1\n"
    )
    code = main(
        ["ingest", "--user", str(packets),
         "--checkpoint", str(tmp_path / "ck.npz")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT == 9
    assert "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert "p.csv:3:" in line


# SMALL's study carries no energy for two of the six Table 2 apps.
def test_table2_skips_apps_without_energy(capsys):
    code, out = run(capsys, "table", "2", *SMALL)
    assert code == 0
    assert "Table 2: preemptively killing idle background apps" in out
    assert "weibo" not in out.splitlines()[1]  # header row
    assert out.rstrip().splitlines()[-1] == (
        "(Table 2 skips apps with no attributed energy in this study: "
        "com.sina.weibo, com.espn.score_center)"
    )


def test_report_renders_table2_when_an_app_is_absent(capsys):
    code, out = run(capsys, "report", *SMALL)
    assert code == 0
    assert "Table 2: preemptively killing idle background apps" in out
    assert out.rstrip().endswith("com.sina.weibo, com.espn.score_center)")


def test_table2_unchanged_when_all_apps_present(medium_study):
    """With all six apps carrying energy there is no note: the output
    is exactly the plain Table 2."""
    from repro.cli import TABLE2_APPS
    from repro.cli.analyses import _render_kill_table2
    from repro.core import kill_policy_savings, report

    expected = report.render_table2(
        [kill_policy_savings(medium_study, app) for app in TABLE2_APPS]
    )
    assert _render_kill_table2(medium_study) == expected
