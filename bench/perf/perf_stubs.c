/* Bytes a file occupies on disk.  The mmap page store grows its file by
   doubling, so the apparent size of a sparse file overstates what it
   holds; st_blocks counts what the file system allocated. */

#include <sys/stat.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

value perf_allocated_bytes(value path)
{
  CAMLparam1(path);
  struct stat st;
  if (stat(String_val(path), &st) != 0) caml_failwith("allocated_bytes: stat failed");
  CAMLreturn(Val_long((long)st.st_blocks * 512L));
}
