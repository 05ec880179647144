(* Sample summaries shared by every workload. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]; 0 for an empty sample. *)
let percentile p samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Samples strictly above the nearest-rank [p] percentile's position —
   the count the benchmark needs to be at least 10 for p90 to mean
   anything. *)
let beyond p samples =
  let n = List.length samples in
  if n = 0 then 0
  else n - max 1 (min n (int_of_float (ceil (p *. float_of_int n))))

let median samples = percentile 0.5 samples

let now_ms () = Obs.Clock.ns_to_ms (Obs.Clock.now_ns ())

(* Repetition rule for set-up and write timings, whose single samples
   are short and noisy: at least [min_reps] samples, and more until
   [budget_s] seconds have been spent (at most 1000). *)
let more ~min_reps ~budget_s ~t0 k =
  k < min_reps || (k < 1000 && now_ms () -. t0 < budget_s *. 1000.0)

(* [f] run under {!more}; its samples in order. *)
let repeat ~min_reps ~budget_s f =
  let t0 = now_ms () in
  let rec go k acc =
    if more ~min_reps ~budget_s ~t0 k then go (k + 1) (f k :: acc)
    else List.rev acc
  in
  go 0 []

(* Peak resident set ([VmHWM]) of a process in MiB, from procfs. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Fmt.str "/proc/%d/status" pid
  in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> 0.0
  | lines ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0 lines
