"""Every `jacktop ...` line of the README's "Command line" block runs
through cli.main and exits 0, and the outputs its comments show are the
ones printed."""

import os
import shlex

from jacktop import cli

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")

# Command -> the output that its README comment ends with.
SHOWN = {"kl-top 2 --format text": "R3 + R2*g",
         "eval ch 2 2": '{"1": "2"}'}


def readme_commands():
    """(arguments after `jacktop`, comment) for each line of the block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        assert words[0] == "jacktop", line
        out.append((words[1:], comment.strip()))
    return out


def test_readme_command_lines_run(capsys):
    commands = readme_commands()
    assert len(commands) >= 7
    shown = {}
    for argv, comment in commands:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        key = " ".join(argv)
        if key in SHOWN:
            assert comment.endswith(SHOWN[key]), comment
            shown[key] = out.strip()
    assert shown == SHOWN
