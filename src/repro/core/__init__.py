"""The CAD View core: configuration, builder, view object, rendering."""

from repro.core import serialize
from repro.core.builder import CADViewBuilder
from repro.core.categorize import CategoryNode, CategoryTree
from repro.core.cadview import CADView, CADViewConfig, IUnitRef
from repro.core.explorer import DBExplorer
from repro.core.profile import BuildProfile
from repro.core.render import render_cadview

__all__ = [
    "CADViewConfig", "CADView", "IUnitRef",
    "CADViewBuilder", "DBExplorer",
    "BuildProfile", "render_cadview",
    "CategoryNode", "CategoryTree", "serialize",
]
