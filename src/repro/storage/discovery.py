"""Out-of-core names of the discovery index.

:class:`~repro.dataset.index.PatternIndex` is discovery's one inverted
pattern index.  It works at dictionary-code granularity on every backend,
``sql`` included, and at every LHS size, so its memory and build time are
O(distinct values × parts), independent of the row count.
``CodePatternIndex`` and ``CodeAttributeIndex`` are the names the ``sql``
backend's index is imported under; they stay as aliases so those imports,
and tracers that wrap the index constructor by name, keep working.
"""

from __future__ import annotations

from ..dataset.index import AttributeIndex, PatternIndex

#: Aliases of the one discovery index (see the module docstring).
CodePatternIndex = PatternIndex
CodeAttributeIndex = AttributeIndex

__all__ = ["CodeAttributeIndex", "CodePatternIndex"]
