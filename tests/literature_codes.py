"""Stabilizer generator tables typed from the literature, shared by the tests."""

# Laflamme, Miquel, Paz & Zurek, PRL 77, 198 (1996)
CODE_513 = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

# D. Gottesman, PRA 54, 1862 (1996)
GOTTESMAN_833 = ("XXXXXXXX", "ZZZZZZZZ", "IXIXYZYZ", "IXZYIXZY", "IYXZXZIY")

# P. W. Shor, PRA 52, R2493 (1995)
SHOR_913 = (
    "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
    "XXXXXXIII", "IIIXXXXXX",
)
