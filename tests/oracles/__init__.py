"""Naive reference implementations the optimized code is checked against."""
