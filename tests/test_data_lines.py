"""The rules of core.data_lines, stated once for both of its readers: the
vectors file of `summit topk` (cli.read_vectors_file) and the isotope table
of `summit isotopes --data` (load_isotope_table).

This module imports no numpy, so the numpy-free CI job runs it too.
"""

import re

import pytest

from summit import InputError, load_isotope_table
from summit.cli import read_vectors_file

# Per reader: the read call, three data lines and what reading them gives,
# the message that refuses the third line with a "_" appended, and the
# message that refuses a file with no data line.
READERS = {
    "vectors": (read_vectors_file, ("3,1", "4,2", "5,6"),
                [[3.0, 1.0], [4.0, 2.0], [5.0, 6.0]],
                "malformed vector line '5,6_0'", "no vectors found"),
    "table": (load_isotope_table,
              ("F\t18.99840322\t1.0", "Na\t22.98976928\t1.0", "P\t30.97376163\t1.0"),
              {"F": [(18.99840322, 1.0)], "Na": [(22.98976928, 1.0)],
               "P": [(30.97376163, 1.0)]},
              "non-numeric mass or abundance", "no isotope rows found"),
}

# Each rule: the file's text, built from a reader's three data lines and
# encoded as UTF-8 with "\udcff" standing for the byte 0xff, and either None,
# for the three lines read, or the start of the refusal's message.
RULES = {
    "comments-and-blank-lines": ("# header\n\n{0}\n \t\n{1}\n# {2}\n{2}\n", None),
    "bom-before-data": ("\ufeff{0}\n{1}\n{2}\n", None),
    "bom-before-comment": ("\ufeff# header\n{0}\n{1}\n{2}\n", None),
    "second-bom-is-data": ("\ufeff\ufeff{0}\n{1}\n{2}\n", "{path}:1: "),
    "form-feed-inside-a-line": ("# built by hand\fpage two\n{0}\n{1}\n{2}\n", None),
    "cr-lf-and-cr-end-lines": ("{0}\r\n{1}\r{2}\n", None),
    "u2028-inside-a-line": ("{0}\u2028{1}\n{2}\n", "{path}:1: "),
    "not-utf8": ("{0}\n{1}\udcff\n{2}\n", "{path}: not UTF-8 text"),
    "digit-separator": ("# header\n{0}\n{1}\n{2}_0\n", "{path}:4: {malformed}"),
    "only-comments": ("# header\n\n# {0}\n", "{path}: {empty}"),
}


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("reader", READERS)
def test_data_lines_rule(tmp_path, reader, rule):
    read, lines, parsed, malformed, empty = READERS[reader]
    template, refusal = RULES[rule]
    path = tmp_path / "data.txt"
    path.write_bytes(template.format(*lines).encode("utf-8", "surrogateescape"))
    if refusal is None:
        assert read(str(path)) == parsed
    else:
        message = refusal.format(path=path, malformed=malformed, empty=empty)
        with pytest.raises(InputError, match="^" + re.escape(message)):
            read(str(path))
