(* Host-speed probe.

   The benchmark runs on virtual machines that share their memory
   system with other tenants. Their traffic slows this process by up
   to a third for seconds to minutes at a time, whatever the code does
   (NOTES.md, "Host-speed probe"). [sample ()] times one fixed unit of
   memory-bound work that has nothing to do with the program under
   test; the run's median sample measures how fast the host ran while
   the run's ops did, and [scale] turns that into the factor the
   reported times are multiplied by.

   The work: a streaming fill and sum over 16 MB, then 50 000
   independent loads at scattered places in 32 MB, the access pattern
   of hash-table probes. It allocates nothing, so it does no GC work on
   the program's heap. Its arrays (48 MB) are bigarrays, outside the
   OCaml heap, so they do not change how the GC paces that heap; they
   are built at start-up and count in [peak_rss_mb]. *)

module A = Bigarray.Array1

let buffer words =
  let a = A.create Bigarray.int Bigarray.c_layout words in
  A.fill a 1;
  a

let stream = buffer (1 lsl 21)
let scattered = buffer (1 lsl 22)

let work () =
  A.fill stream 7;
  let s = ref 0 in
  for i = 0 to A.dim stream - 1 do
    s := !s + A.unsafe_get stream i
  done;
  let mask = A.dim scattered - 1 in
  for i = 1 to 50_000 do
    s := !s + A.unsafe_get scattered (i * 0x9E3779B1 land mask)
  done;
  !s

let samples : float list ref = ref []

(* Time one unit of work and keep the time (ms). *)
let sample () =
  let t0 = Putil.Clock.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  samples := (float (Putil.Clock.now_ns () - t0) /. 1e6) :: !samples

(* The probe's usual time on the reference host (a 2-vCPU VM, see
   NOTES.md): a run whose median sample equals it reports its measured
   times unchanged. *)
let reference_ms = 8.0

(* [reference_ms] over the median sample: multiply a time by it (and
   divide a rate) to express it at the reference host's speed. *)
let scale median_ms = reference_ms /. median_ms
