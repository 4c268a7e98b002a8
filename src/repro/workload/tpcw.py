"""A TPC-W-flavoured checkout workload.

The paper motivates PLANET with interactive web-shop transactions: a
checkout reads the customer and cart, decrements stock for each purchased
item (escrow-guarded, so stock never goes negative), and inserts an order
record.  Item popularity is Zipf-skewed, so best-sellers are the hot
records; the ``exclusive_stock`` switch turns the stock decrements into
version-validated writes to show what happens *without* commutative options.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Optional

from repro.core.transaction import PlanetTransaction
from repro.workload.keys import ZipfChooser


@dataclass
class TpcwSpec:
    n_customers: int = 1000
    n_items: int = 1000
    item_theta: float = 0.95          # Zipf skew of item popularity
    max_cart_items: int = 3
    initial_stock: int = 1_000_000    # effectively unbounded unless lowered
    exclusive_stock: bool = False     # True: stock writes validate versions
    timeout_ms: Optional[float] = None
    guess_threshold: Optional[float] = None
    _item_chooser: ZipfChooser = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._item_chooser = ZipfChooser(self.n_items, self.item_theta, prefix="stock")

    def initial_data(self) -> dict:
        """The load-phase dataset (install with ``cluster.load``)."""
        data = {}
        for item in range(self.n_items):
            data[f"stock:{item}"] = self.initial_stock
        for customer in range(self.n_customers):
            data[f"customer:{customer}"] = {"orders": 0}
        return data


#: Default transaction mix, loosely following TPC-W's browsing/ordering
#: profile: mostly reads, a healthy cart-update stream, fewer checkouts
#: and payments.
DEFAULT_MIX = (
    ("browse", 0.50),
    ("add_to_cart", 0.25),
    ("checkout", 0.15),
    ("payment", 0.10),
)


def build_browse_tx(session, spec: TpcwSpec, rng: Random) -> PlanetTransaction:
    """Read-only product/stock views — the interactive bulk of the load."""
    tx = session.transaction()
    n_items = rng.randint(1, spec.max_cart_items)
    for item_key in spec._item_chooser.choose_distinct(rng, n_items):
        tx.read(item_key)
    if spec.timeout_ms is not None:
        tx.with_timeout(spec.timeout_ms)
    return tx


def build_add_to_cart_tx(session, spec: TpcwSpec, rng: Random) -> PlanetTransaction:
    """Rewrite the customer's cart record (single-key, version-validated)."""
    tx = session.transaction()
    customer = rng.randrange(spec.n_customers)
    item = spec._item_chooser.choose(rng)
    tx.write(f"cart:{customer}", {"item": item, "qty": rng.randint(1, 3)})
    if spec.timeout_ms is not None:
        tx.with_timeout(spec.timeout_ms)
    if spec.guess_threshold is not None:
        tx.with_guess_threshold(spec.guess_threshold)
    return tx


def build_payment_tx(session, spec: TpcwSpec, rng: Random) -> PlanetTransaction:
    """Charge a customer balance (escrow-guarded) and stamp the order paid."""
    tx = session.transaction()
    customer = rng.randrange(spec.n_customers)
    amount = rng.randint(1, 50)
    tx.increment(f"balance:{customer}", -amount, floor=float("-inf"))
    payment_id = session.cluster.mint_txid("pay")
    tx.write(f"payment:{payment_id}", {"customer": customer, "amount": amount})
    if spec.timeout_ms is not None:
        tx.with_timeout(spec.timeout_ms)
    if spec.guess_threshold is not None:
        tx.with_guess_threshold(spec.guess_threshold)
    return tx


def build_tpcw_tx(
    session, spec: TpcwSpec, rng: Random, mix=DEFAULT_MIX
) -> PlanetTransaction:
    """Draw one transaction from the weighted mix."""
    roll = rng.random() * sum(weight for _, weight in mix)
    cumulative = 0.0
    kind = mix[-1][0]
    for name, weight in mix:
        cumulative += weight
        if roll < cumulative:
            kind = name
            break
    builders = {
        "browse": build_browse_tx,
        "add_to_cart": build_add_to_cart_tx,
        "checkout": build_checkout_tx,
        "payment": build_payment_tx,
    }
    return builders[kind](session, spec, rng)


def build_checkout_tx(session, spec: TpcwSpec, rng: Random) -> PlanetTransaction:
    """One checkout: read customer+cart, decrement stock, insert order."""
    tx = session.transaction()
    customer = rng.randrange(spec.n_customers)
    tx.read(f"customer:{customer}")
    n_items = rng.randint(1, spec.max_cart_items)
    items = spec._item_chooser.choose_distinct(rng, n_items)
    for item_key in items:
        if spec.exclusive_stock:
            # Non-commutative variant: blind rewrite of the stock record,
            # validated against the version read — every pair of concurrent
            # checkouts of the same item conflicts.
            tx.write(item_key, rng.randrange(spec.initial_stock))
        else:
            tx.increment(item_key, -1, floor=0.0)
    order_id = session.cluster.mint_txid("order")
    tx.write(f"order:{order_id}", {"customer": customer, "items": items})
    if spec.timeout_ms is not None:
        tx.with_timeout(spec.timeout_ms)
    if spec.guess_threshold is not None:
        tx.with_guess_threshold(spec.guess_threshold)
    return tx
