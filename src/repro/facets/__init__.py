"""Faceted navigation: the Solr-like baseline engine, digests, TPFacet."""

from repro.facets.digest import Digest
from repro.facets.engine import FacetedEngine, FacetSession
from repro.facets.tpfacet import Phase, TPFacetSession

__all__ = [
    "Digest",
    "FacetedEngine",
    "FacetSession",
    "Phase",
    "TPFacetSession",
]
