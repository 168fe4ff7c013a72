"""Fixture tree for the prints rule."""
