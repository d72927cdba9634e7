/* CPU time of the calling thread, the benchmark's host clock. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

double bench_cpu_seconds(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value bench_cpu_seconds_byte(value unit)
{
  return caml_copy_double(bench_cpu_seconds(unit));
}
