"""The steady state from the paper's equations in 70-digit decimal arithmetic.

The route is the long one the closed form shortcuts: the reduced output
y = theta^(ae/(1-ae)) k^(alpha/(1-ae)) l^(beta/(1-ae)) of the data fixed
point, labor from its first-order condition (beta/(1-ae)) y/l = w, the
profit coefficient pi = y(1) - w l*(1) of profit pi k^(alpha/den), the
interest rate r(k) = (alpha/den) pi k^(kx/den) solved for r(k*) = rho + delta,
and c* = y* - delta k*.  Every parameter enters as the exact value of its
double, and nothing is shared with ``dataecon.core``.  Derivatives are
central differences of the same evaluation with a step of 1e-20.
"""

from decimal import Decimal, localcontext

DIGITS = 70
_STEP = Decimal("1e-20")


def _power(base: Decimal, expo: Decimal) -> Decimal:
    """base^expo for base > 0; exactly 1 when expo is 0 (so 0^0 drops out)."""
    return Decimal(1) if expo == 0 else (expo * base.ln()).exp()


def _steady(p, theta: Decimal, eta: Decimal) -> dict:
    alpha, beta, w, rho, delta = (Decimal(v) for v in (p.alpha, p.beta, p.w, p.rho, p.delta))
    ae = alpha * eta
    om = 1 - ae
    den = om - beta
    kx = alpha + beta + ae - 1
    tech = _power(theta, ae / om)  # theta^(ae/(1-ae)), the data term of y

    def labor(k):  # the first-order condition solved for l
        return _power(beta / (om * w) * tech * _power(k, alpha / om), om / den)

    def output(k, l):
        return tech * _power(k, alpha / om) * _power(l, beta / om)

    l1 = labor(Decimal(1))
    profit = output(Decimal(1), l1) - w * l1
    k = _power((rho + delta) * den / (alpha * profit), den / kx)
    l = labor(k)
    y = output(k, l)
    return {"k_star": k, "c_star": y - delta * k, "l_star": l, "y_star": y}


def steady_state(p) -> dict:
    """k*, c*, l* and y* of ``p`` (theta > 0, outside the singular point kx = 0)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return _steady(p, Decimal(p.theta), Decimal(p.eta))


def sensitivities(p) -> dict:
    """d(k*, c*)/d(eta, theta) of ``p`` by central differences, keyed like
    ``SensitivityReport`` (dk_deta, dk_dtheta, dc_deta, dc_dtheta)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        theta, eta = Decimal(p.theta), Decimal(p.eta)
        out = {}
        for name, up, down in (
                ("eta", (theta, eta + _STEP), (theta, eta - _STEP)),
                ("theta", (theta + _STEP, eta), (theta - _STEP, eta))):
            hi, lo = _steady(p, *up), _steady(p, *down)
            for q in ("k", "c"):
                out[f"d{q}_d{name}"] = (hi[f"{q}_star"] - lo[f"{q}_star"]) / (2 * _STEP)
        return out
