"""Exact K-type branching tables for standard representations of real
reductive groups, with desk-scale numerical index verification."""

__version__ = "0.1.0"
