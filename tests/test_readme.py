"""The README's examples run as written."""

from pathlib import Path

from adapterfuse.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def block_after(text, marker, start, end):
    """The text between `start` and `end` that follows the first `marker`."""
    rest = text[text.index(marker):]
    rest = rest[rest.index(start) + len(start):]
    return rest[: rest.index(end)]


def test_python_api_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    spec = block_after(text, "## CLI", "cat > spec.kv <<EOF\n", "EOF\n")
    api = block_after(text, "## Python API", "```python\n", "```")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.kv").write_text(spec)
    assert main(["synth", "--spec", "spec.kv", "--out", "planted.alib"]) == 0
    capsys.readouterr()
    scope = {}
    exec(compile(api, str(README), "exec"), scope)
    fits = [float(x) for x in capsys.readouterr().out.split()]
    assert len(fits) == 2 and all(0.0 < f <= 1.0 for f in fits)
    assert set(scope["merged"]) == {"00", "01", "02", "03"}
    assert scope["ties"].shape == (48, 48)
