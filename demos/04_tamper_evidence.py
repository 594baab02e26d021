"""The audit trail resists editing.

Seals a few blocks, verifies the chain, then edits the bytes of a
recorded transaction in its block line, reads the line back, and shows
verification pinpointing the damage.

Run: python3 demos/04_tamper_evidence.py
"""

from skyledger import AuthorityContract, Ledger
from skyledger.ledger import Block, block_digest, verify_blocks

ledger = Ledger()
authority = AuthorityContract(ledger)
operator = ledger.create_account("operator", 1000)
ledger.genesis(note="tamper demo")

for i in range(3):
    ledger.submit(operator, "register_drone",
                  {"serial": f"SN-{i}", "ownerNationalId": f"N-{i}", "signTAC": True})
    block = ledger.seal_block()
    print(f"sealed block {block.index}: hash {block.hash.hex()[:24]}…")

print(f"\nchain verifies: {ledger.verify_chain()}")

lines = [b.line() for b in ledger.blocks]
print("\nrewriting history: block 1's line, serial 'SN-1' -> 'SN-FAKE'")
assert lines[1].count(b'"serial":"SN-1"') == 1
lines[1] = lines[1].replace(b'"serial":"SN-1"', b'"serial":"SN-FAKE"')
tampered = [Block.from_line(line) for line in lines]
print(f"the line still reads: serial {tampered[1].transactions[0].args['serial']!r}")

ok, bad_index = verify_blocks(tampered)
print(f"verification now: ok={ok}, first broken block: {bad_index}")

print("\nand fixing up block 1's hash does not help, the links are chained:")
tampered[1].hash = block_digest(tampered[1].index, tampered[1].prev_hash, tampered[1].body)
ok, bad_index = verify_blocks(tampered)
print(f"verification now: ok={ok}, first broken block: {bad_index} (the successor's parent link)")
