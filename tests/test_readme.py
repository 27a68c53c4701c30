"""README's examples, run as written: the library example as a doctest and
the command-line transcript through ``cli.run``, stdout compared exactly."""

import doctest
import os
import re
import shlex

from tqftkit.cli import run

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def fenced(language):
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.S | re.M)


def transcript(block):
    """(argv, exit code, stdout) per ``$ tqftkit`` line; the exit code is 0
    unless the line's comment starts with ``exit N``."""
    commands = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ "):
            command, _, comment = line[2:].partition("#")
            exit_code = re.match(r"\s*exit (\d+)", comment)
            argv = shlex.split(command)
            assert argv[0] == "tqftkit"
            commands.append((argv[1:], int(exit_code[1]) if exit_code else 0, []))
        else:
            commands[-1][2].append(line)
    return [(argv, code, "".join(out)) for argv, code, out in commands]


def test_library_example():
    (block,) = fenced("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README", README, 0)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
    assert runner.tries == 15


def test_command_line_examples(capsys):
    (block,) = fenced("console")
    commands = transcript(block)
    assert [argv[0] for argv, _, _ in commands] == ["invariant", "check", "relations", "eval", "recon"]
    for argv, exit_code, stdout in commands:
        assert run(argv) == exit_code, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (stdout, ""), argv
