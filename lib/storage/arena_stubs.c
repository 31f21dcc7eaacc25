/* C kernels for the storage layer: CRC-32, copies between a mapping and
   bytes, RAM chunks that give their memory back, the readahead hint for
   a mapped checkpoint, and the unmapping of a committed file's image or
   a RAM chunk.

   CRC-32 (IEEE 802.3, polynomial 0xEDB88320) checks every WAL record,
   checkpoint chunk and page frame, and every charged page read verifies
   one, so it sits on the query path as well as the open and checkpoint
   paths.  On x86-64 CPUs that report PCLMULQDQ at run time, the bulk of
   a buffer is folded with carry-less multiplies, 64 bytes a step (Gopal
   et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
   Instruction", Intel, 2009).  Slicing-by-8 tables, eight 256-entry
   tables that fold eight bytes a step, serve other CPUs and the tail of
   a folded buffer, and are the reference the fold is tested against.
   Both compute the same polynomial, so the bytes checksummed never
   depend on the CPU.  Both OCaml buffer types (bytes and the mapped
   Bigarray) are served from the one kernel; the OCaml side checks
   bounds before calling in, as it does for the copies, which are one
   memcpy each.

   The stdlib exposes Unix.map_file but no way to hint the kernel about
   an upcoming access pattern, and no way to unmap a file before the GC
   finalises its bigarray.  A RAM chunk is an anonymous mapping wrapped
   the way Unix.map_file wraps a file's, so the one unmap serves both. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/fail.h>

#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>

#ifndef _WIN32
#include <sys/mman.h>
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RTA_CLMUL 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static uint32_t crc_tables[8][256];

/* Set once by rta_crc32_init, before any domain runs: whether this CPU
   folds with PCLMULQDQ. */
static int crc_clmul = 0;

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
#ifdef RTA_CLMUL
  {
    unsigned int a, b, c, d;
    crc_clmul = __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL) != 0;
  }
#endif
  return Val_unit;
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* The table kernel over the running (inverted) state [crc]. */
static uint32_t crc32_tables(uint32_t crc, const unsigned char *p, size_t len)
{
  const uint32_t (*t)[256] = crc_tables;
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
  return crc;
}

#ifdef RTA_CLMUL
/* The running state [crc] folded over [len] bytes, [len] a multiple of
   16 and at least 64: four 128-bit lanes folded 64 bytes a step, the
   lanes folded into one, then 16 bytes a step, and a Barrett reduction
   of the last 128 bits to 32.  The constants are x^(k) mod P for the
   fold distances, bit-reflected, and the reduction's quotient and
   polynomial, from the paper cited above. */
__attribute__((target("pclmul,sse2")))
static uint32_t crc32_clmul(uint32_t crc, const unsigned char *p, size_t len)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596LL, 0x0154442bd4LL);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009eLL, 0x01751997d0LL);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124LL);
  const __m128i poly = _mm_set_epi64x(0x01f7011641LL, 0x01db710641LL);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  __m128i x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  __m128i t1, t2, t3, t4;
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
  p += 64;
  len -= 64;
  while (len >= 64) {
    t1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    t2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    t3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    t4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t1), _mm_loadu_si128((const __m128i *)(p + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, t2), _mm_loadu_si128((const __m128i *)(p + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, t3), _mm_loadu_si128((const __m128i *)(p + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, t4), _mm_loadu_si128((const __m128i *)(p + 0x30)));
    p += 64;
    len -= 64;
  }
  /* Four lanes into one. */
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x11), x2), t1);
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x11), x3), t1);
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x11), x4), t1);
  while (len >= 16) {
    t1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x11),
                                     _mm_loadu_si128((const __m128i *)p)),
                       t1);
    p += 16;
    len -= 16;
  }
  /* 128 bits to 64. */
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t1);
  t1 = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00), t1);
  /* Barrett reduction to 32 bits. */
  t1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t1 = _mm_clmulepi64_si128(_mm_and_si128(t1, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t1);
  return (uint32_t)_mm_cvtsi128_si32(_mm_srli_si128(x1, 4));
}
#endif

/* Extends [crc] (a finished checksum, 0 for none) over [len] bytes;
   [fold] lets the reference run the tables alone. */
static uint32_t crc32_update(uint32_t crc, const unsigned char *p, size_t len, int fold)
{
  crc = ~crc;
#ifdef RTA_CLMUL
  if (fold && crc_clmul && len >= 64) {
    size_t bulk = len & ~(size_t)15;
    crc = crc32_clmul(crc, p, bulk);
    p += bulk;
    len -= bulk;
  }
#else
  (void)fold;
#endif
  return ~crc32_tables(crc, p, len);
}

CAMLprim value rta_crc32_bytes(value vcrc, value vbuf, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(vbuf) + Long_val(vpos);
  return Val_long(crc32_update((uint32_t)Long_val(vcrc), p, (size_t)Long_val(vlen), 1));
}

CAMLprim value rta_crc32_bigarray(value vcrc, value vba, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)Caml_ba_data_val(vba) + Long_val(vpos);
  return Val_long(crc32_update((uint32_t)Long_val(vcrc), p, (size_t)Long_val(vlen), 1));
}

/* The table kernel alone: the reference the fold is checked against. */
CAMLprim value rta_crc32_tables_bytes(value vcrc, value vbuf, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(vbuf) + Long_val(vpos);
  return Val_long(crc32_update((uint32_t)Long_val(vcrc), p, (size_t)Long_val(vlen), 0));
}

CAMLprim value rta_crc32_folds(value unit)
{
  (void)unit;
  return Val_bool(crc_clmul);
}

/* Copies between a mapping and bytes, for frames: the OCaml side has
   checked both ranges, so these check nothing.  Bytes live in the OCaml
   heap and a bigarray's data outside it, so the two never overlap. */
CAMLprim value rta_blit_bigarray_bytes(value vsrc, value vsrc_off, value vdst,
                                       value vdst_off, value vlen)
{
  size_t len = (size_t)Long_val(vlen);
  if (len > 0)
    memcpy(Bytes_val(vdst) + Long_val(vdst_off),
           (const char *)Caml_ba_data_val(vsrc) + Long_val(vsrc_off), len);
  return Val_unit;
}

CAMLprim value rta_blit_bytes_bigarray(value vsrc, value vsrc_off, value vdst,
                                       value vdst_off, value vlen)
{
  size_t len = (size_t)Long_val(vlen);
  if (len > 0)
    memcpy((char *)Caml_ba_data_val(vdst) + Long_val(vdst_off),
           Bytes_val(vsrc) + Long_val(vsrc_off), len);
  return Val_unit;
}

/* A move inside or between mappings, for a frame edited in place: the
   ranges may overlap, so it is a memmove.  The OCaml side has checked
   both. */
CAMLprim value rta_blit_bigarray(value vsrc, value vsrc_off, value vdst, value vdst_off,
                                 value vlen)
{
  size_t len = (size_t)Long_val(vlen);
  if (len > 0)
    memmove((char *)Caml_ba_data_val(vdst) + Long_val(vdst_off),
            (const char *)Caml_ba_data_val(vsrc) + Long_val(vsrc_off), len);
  return Val_unit;
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

/* Exported by the unix library: wraps [data] as a bigarray whose
   finaliser unmaps it, the wrapper Unix.map_file gives a mapped file. */
extern value caml_unix_mapped_alloc(int flags, int num_dims, void *data, intnat *dim);

/* A RAM chunk of [len] bytes: a private anonymous mapping, zero-filled
   and backed by memory only where it is written, wrapped as Unix.map_file
   wraps a file.  Unmapping it gives the memory back to the system at
   once, which a malloc'd array freed into the allocator's heap need not
   do. */
CAMLprim value rta_arena_ram(value vlen)
{
  intnat dim = Long_val(vlen);
  void *data = NULL;
#ifndef _WIN32
  if (dim > 0) {
    data = mmap(NULL, (size_t)dim, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (data == MAP_FAILED) caml_raise_out_of_memory();
  }
  return caml_unix_mapped_alloc(CAML_BA_CHAR | CAML_BA_C_LAYOUT, 1, data, &dim);
#else
  (void)data;
  return caml_ba_alloc(CAML_BA_CHAR | CAML_BA_C_LAYOUT, 1, NULL, &dim);
#endif
}

/* Unmap a bigarray made by Unix.map_file or rta_arena_ram now, rather
   than when the GC finalises it, and leave it with no elements: a later
   access fails its bounds check instead of touching unmapped memory, and
   the finaliser, which unmaps the array's byte size, finds nothing left
   to unmap.  A sub-array's mapping is shared through a proxy and is left
   to the GC; the result says whether the mapping went. */
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
