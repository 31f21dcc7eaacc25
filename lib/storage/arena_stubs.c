/* C kernels for the storage layer: CRC-32, the arena's readahead hint,
   and the unmapping of a committed file's image.

   CRC-32 (IEEE 802.3, polynomial 0xEDB88320) is computed slicing-by-8:
   eight 256-entry tables fold eight input bytes per step.  It checks
   every WAL record, checkpoint chunk and page block, so it sits on the
   open and checkpoint paths; both OCaml buffer types (bytes and the
   mapped Bigarray) are served from the one kernel.  The OCaml side
   checks bounds before calling in.

   The stdlib exposes Unix.map_file but no way to hint the kernel about
   an upcoming access pattern, which the descent-path readahead needs,
   and no way to unmap a file before the GC finalises its bigarray. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#include <stddef.h>
#include <stdint.h>
#include <unistd.h>

#ifndef _WIN32
#include <sys/mman.h>
#endif

static uint32_t crc_tables[8][256];

/* Called once from OCaml at module initialisation, before any domain
   can compute a checksum. */
CAMLprim value rta_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; n++)
    for (int k = 1; k < 8; k++)
      crc_tables[k][n] =
        (crc_tables[k - 1][n] >> 8) ^ crc_tables[0][crc_tables[k - 1][n] & 0xff];
  return Val_unit;
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* Extends [crc] (a finished checksum, 0 for none) over [len] bytes. */
static uint32_t crc32_update(uint32_t crc, const unsigned char *p, size_t len)
{
  const uint32_t (*t)[256] = crc_tables;
  crc = ~crc;
  while (len >= 8) {
    uint32_t lo = load_le32(p) ^ crc;
    uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff]
          ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff]
          ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len--)
    crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return ~crc;
}

CAMLprim value rta_crc32_bytes(value vcrc, value vbuf, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(vbuf) + Long_val(vpos);
  return Val_long(crc32_update((uint32_t)Long_val(vcrc), p, (size_t)Long_val(vlen)));
}

CAMLprim value rta_crc32_bigarray(value vcrc, value vba, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)Caml_ba_data_val(vba) + Long_val(vpos);
  return Val_long(crc32_update((uint32_t)Long_val(vcrc), p, (size_t)Long_val(vlen)));
}

CAMLprim value rta_arena_willneed(value vba, value voff, value vlen)
{
#if !defined(_WIN32) && defined(POSIX_MADV_WILLNEED)
  char *base = (char *)Caml_ba_data_val(vba);
  long off = Long_val(voff);
  long len = Long_val(vlen);
  long pagesz = sysconf(_SC_PAGESIZE);
  /* posix_madvise needs a page-aligned start address; widen the range
     down to the enclosing page boundary. */
  uintptr_t delta = (uintptr_t)(base + off) % (uintptr_t)pagesz;
  /* Advisory: a refusal (e.g. on weird filesystems) costs only the
     prefetch, so the return code is deliberately ignored. */
  (void)posix_madvise(base + off - delta, (size_t)(len + (long)delta), POSIX_MADV_WILLNEED);
#else
  (void)vba;
  (void)voff;
  (void)vlen;
#endif
  return Val_unit;
}

/* Unmap a bigarray made by Unix.map_file now, rather than when the GC
   finalises it, and leave it with no elements: a later access fails its
   bounds check instead of touching unmapped memory, and the finaliser,
   which unmaps the array's byte size, finds nothing left to unmap.  A
   sub-array's mapping is shared through a proxy and is left to the GC;
   the result says whether the mapping went. */
CAMLprim value rta_arena_unmap(value vba)
{
#ifndef _WIN32
  struct caml_ba_array *b = Caml_ba_array_val(vba);
  if ((b->flags & CAML_BA_MANAGED_MASK) != CAML_BA_MAPPED_FILE || b->proxy != NULL)
    return Val_false;
  uintnat len = caml_ba_byte_size(b);
  if (len > 0) {
    uintnat delta = (uintnat)b->data % (uintnat)sysconf(_SC_PAGESIZE);
    if (munmap((char *)b->data - delta, len + delta) != 0) return Val_false;
  }
  for (intnat i = 0; i < b->num_dims; i++)
    b->dim[i] = 0;
  return Val_true;
#else
  (void)vba;
  return Val_false;
#endif
}
