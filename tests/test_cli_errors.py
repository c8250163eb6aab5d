"""The CLI's error contract: a failing command prints one ``error:`` line
on stderr and exits 2, never a traceback; flags are checked before any
connection is made."""

import pytest

from repro.flow import cli

BAD_KERNEL = "var input u : [4 4]\nvar output v : [4 4]\nv = u +* u\n"
BAD_PROGRAM = f"=== cfdlang program bad ===\n=== kernel k ===\n{BAD_KERNEL}"

FAILING_COMMANDS = {
    "syntax-error": ["{tmp}/bad.cfd", "-o", "{tmp}/out"],
    "syntax-error-stop-after": ["{tmp}/bad.cfd", "--stop-after", "parse"],
    "missing-file": ["{tmp}/missing.cfd", "-o", "{tmp}/out"],
    "program-syntax-error": ["program", "{tmp}/bad.cfdp"],
    "program-unknown-backend": ["program", "--suite", "smoother",
                                "--exec-backend", "bogus"],
    "solve-unknown-backend": ["solve", "--exec-backend", "bogus"],
    "cnative-unavailable": ["--app", "helmholtz", "--exec-backend", "cnative",
                            "-o", "{tmp}/out"],
}


@pytest.mark.parametrize("argv", FAILING_COMMANDS.values(),
                         ids=FAILING_COMMANDS.keys())
def test_failure_is_one_error_line(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.cfd").write_text(BAD_KERNEL)
    (tmp_path / "bad.cfdp").write_text(BAD_PROGRAM)
    # no C compiler: cnative is registered but unavailable
    monkeypatch.setenv("CFDLANG_CC", "/nonexistent/cc")
    rc = cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Traceback" not in err


def test_submit_checks_flags_before_connecting(monkeypatch, capsys):
    import repro.flow.service as service

    def no_connection(*args, **kwargs):
        raise AssertionError("submit connected before checking its flags")

    monkeypatch.setattr(service, "ServiceClient", no_connection)
    rc = cli.main(["submit", "--broker", "127.0.0.1:1", "--token", "t",
                   "--app", "helmholtz", "-n", "4", "--sweep", "1x1",
                   "--exec-backend", "bogus"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "'bogus'" in err
