"""Vectorized message extraction and severity extraction.

* ``extract_messages`` -- the split-once-on-'|' of get_message
  (logsender.py:368-372): pipe present -> remainder, newline-stripped,
  lstripped; no pipe -> whole line newline-stripped (NOT lstripped --
  the reference's asymmetry is preserved).  ONE ``split_pattern``
  kernel gives both pieces; the newline strip is a pass over the lines
  only when the block's data holds a ``\\n`` byte.
* ``extract_severity`` -- the grok loglevel capture
  (openstack-filters.conf:48) modeled as first occurrence of the
  loglevel vocabulary anywhere in the line, default NONE.  Python's
  ``\\b`` sees Unicode word characters and RE2's only ASCII ones, so
  lines with a non-ASCII byte take Python's ``re`` row by row; a block
  of ASCII lines (one max over its data) runs RE2 alone.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..config import SEVERITIES, SEVERITY_NONE
from .detok import halves, non_ascii_rows, string_bytes


def extract_messages(
    lines: pa.Array | pa.ChunkedArray, keep_newlines: bool = False
) -> pa.Array | pa.ChunkedArray:
    """get_message (logsender.py:368-372), vectorized with Arrow kernels.

    ``keep_newlines=True`` is the multiline-joined form: the logstash
    chain joins first (newlines INSIDE the event are real, grok runs
    ``(?m)`` over them, openstack-filters.conf:19-21) and the per-line
    newline strip has already happened before the join.
    """
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    if not keep_newlines and (string_bytes(lines) == ord("\n")).any():
        # stripping first leaves the first '|' and both pieces' other
        # characters where they were
        lines = pc.replace_substring(lines, "\n", "")
    # the piece after the first '|' is null where the line holds none
    _, after = halves(pc.split_pattern(lines, "|", max_splits=1))
    return pc.coalesce(pc.utf8_ltrim_whitespace(after), lines)


def extract_severity(
    lines: pa.Array | pa.ChunkedArray,
    vocabulary: tuple[str, ...] | None = None,
    default: str = SEVERITY_NONE,
) -> pa.Array | pa.ChunkedArray:
    """First keyword of ``vocabulary`` found in the line, else ``default``
    (the grok loglevel capture generalized to any keyword set)."""
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    alternatives = "|".join(SEVERITIES if vocabulary is None else vocabulary)
    sev = pc.fill_null(pc.struct_field(pc.extract_regex(
        lines, pattern=rf"\b(?P<severity>{alternatives})\b"), "severity"),
        default)
    wide = non_ascii_rows(lines)
    if wide is not None and wide.any():
        word = re.compile(rf"\b({alternatives})\b")
        found = [word.search(line)
                 for line in lines.filter(pa.array(wide)).to_pylist()]
        sev = pc.replace_with_mask(sev, pa.array(wide), pa.array(
            [m.group(1) if m else default for m in found], pa.string()))
    return sev
