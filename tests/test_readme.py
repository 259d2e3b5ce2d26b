"""README's code keeps tracking the API."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_sketch_runs_and_its_claims_hold():
    # a line commented `# True` claims its value: it runs as an assertion
    lines = [f"assert {line.split('#')[0].strip()} is True"
             if line.rstrip().endswith("# True") else line
             for line in _library_sketch().splitlines()]
    assert any(line.startswith("assert ns.majorizes(") for line in lines)
    exec(compile("\n".join(lines), str(README), "exec"), {})
