"""Exact-arithmetic certificates and orbit tooling for the planar recurrence
x[n+1] = (p + q*x[n]) / (1 + x[n-1]) with positive parameters and seeds.

The package builds the recurrence's invariant-function model symbolically
(`model`), replays the positivity certificates that establish one-or-two-step
Lyapunov descent (`certifier`), and provides numeric/exact orbit machinery,
stability checks, and parameter-region classification (`dynamics`), all on a
small sparse polynomial engine over the integers (`exactalg`), whose
rational functions are quotients of integer polynomials and whose
coefficients go in and come out as ints; `cli` is the command.
"""
