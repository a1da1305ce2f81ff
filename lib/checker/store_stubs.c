/* Atomic operations on the off-heap slot arena of the compact state store
   (state_store.ml).

   The arena is an (int64, c_layout) Bigarray: its data lives outside the
   OCaml heap and never moves, so a raw pointer into it stays valid across
   GC and can be the target of C11 atomic operations. Every value crossing
   this boundary is an immediate OCaml int (63-bit, via Long_val/Val_long),
   never a boxed Int64 — all three primitives are [@@noalloc] and release no
   locks, so they are safe to call from any domain with no safe-point
   surprises.

   Orderings: claims publish a slot word with acq_rel CAS and read it with
   an acquire load. The slot word itself carries the whole per-state record
   (fingerprint tag + minimal budget spent), so there is no dependent plain
   data to order after it — the acquire/release pairing is only needed for
   the store's own invariant that a non-empty word is fully written. */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

static inline int64_t *slot(value ba, value idx)
{
  return ((int64_t *) Caml_ba_data_val(ba)) + Long_val(idx);
}

/* Atomic acquire load of slots.(idx), as an OCaml int. */
CAMLprim value pcaml_store_get(value ba, value idx)
{
  return Val_long(__atomic_load_n(slot(ba, idx), __ATOMIC_ACQUIRE));
}

/* Single-writer (sequential-engine) store: release, no RMW. */
CAMLprim value pcaml_store_set(value ba, value idx, value v)
{
  __atomic_store_n(slot(ba, idx), (int64_t) Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

/* Compare-and-swap slots.(idx): expected -> desired; true iff it won. */
CAMLprim value pcaml_store_cas(value ba, value idx, value expected, value desired)
{
  int64_t exp = (int64_t) Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(
      slot(ba, idx), &exp, (int64_t) Long_val(desired),
      /* weak: */ 0, __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE));
}
