/* CPU affinity of the calling thread, for Calib.each_cpu. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* The CPUs the calling thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(arr);
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    CAMLreturn(caml_alloc_tuple(0));
  for (int i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  arr = n == 0 ? Atom(0) : caml_alloc(n, 0);
  for (int i = 0; i < CPU_SETSIZE && k < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(arr, k++, Val_int(i));
  CAMLreturn(arr);
}

/* Restrict the calling thread to [cpus]; false if the kernel refuses. */
value perfbench_set_cpus(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
