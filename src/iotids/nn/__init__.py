"""Minimal dense/conv neural-network engine with hand-written backprop."""
