module Rand = Wireless.Rand

(* Kind codes in the flat arrays; flat int/float arrays rather than a
   query record array so the engine's steady state reads plain
   unboxed slots. *)
let k_greedy = 0
let k_gfg = 1
let k_compass = 2
let k_stretch = 3
let kinds = 4

let op_name = function
  | 0 -> "greedy"
  | 1 -> "gfg"
  | 2 -> "compass"
  | _ -> "stretch"

type mix = { greedy : float; gfg : float; compass : float; stretch : float }

let default_mix = { greedy = 0.45; gfg = 0.35; compass = 0.15; stretch = 0.05 }

type skew = Uniform | Zipf of float | Hotspot of { nodes : int; frac : float }

type t = {
  n : int;
  count : int;
  kind : int array;
  src : int array;
  dst : int array;
  arrival_us : float array;  (* empty = closed loop *)
}

let generate ~seed ~n ~count ?(mix = default_mix) ?(skew = Uniform) ?rate () =
  if n <= 0 then invalid_arg "Workload.generate: n must be positive";
  if count < 0 then invalid_arg "Workload.generate: negative count";
  let { greedy; gfg; compass; stretch } = mix in
  if
    greedy < 0. || gfg < 0. || compass < 0. || stretch < 0.
    || greedy +. gfg +. compass +. stretch <= 0.
  then invalid_arg "Workload.generate: mix weights must be >= 0, sum > 0";
  (match rate with
  | Some r when r <= 0. -> invalid_arg "Workload.generate: rate must be positive"
  | _ -> ());
  let rng = Rand.create seed in
  let sample_node =
    match skew with
    | Uniform -> fun () -> Rand.int rng n
    | Zipf s ->
      (* inverse-CDF sampling over the ids' 1/(i+1)^s weights; the
         cumulative table is built once per workload *)
      let cum = Array.make n 0. in
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) s);
        cum.(i) <- !acc
      done;
      let total = !acc in
      fun () ->
        let u = Rand.float rng total in
        (* first index with cum.(i) > u *)
        let lo = ref 0 and hi = ref (n - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cum.(mid) > u then hi := mid else lo := mid + 1
        done;
        !lo
    | Hotspot { nodes; frac } ->
      if frac < 0. || frac > 1. then
        invalid_arg "Workload.generate: hotspot fraction outside [0, 1]";
      let k = max 1 (min nodes n) in
      let hot = Array.init k (fun _ -> Rand.int rng n) in
      fun () ->
        if Rand.float rng 1. < frac then hot.(Rand.int rng k)
        else Rand.int rng n
  in
  let total = greedy +. gfg +. compass +. stretch in
  let t1 = greedy /. total in
  let t2 = t1 +. (gfg /. total) in
  let t3 = t2 +. (compass /. total) in
  let kind = Array.make (max 1 count) 0 in
  let src = Array.make (max 1 count) 0 in
  let dst = Array.make (max 1 count) 0 in
  for q = 0 to count - 1 do
    let r = Rand.float rng 1. in
    kind.(q) <-
      (if r < t1 then k_greedy
       else if r < t2 then k_gfg
       else if r < t3 then k_compass
       else k_stretch);
    src.(q) <- sample_node ();
    dst.(q) <- sample_node ()
  done;
  let arrival_us =
    match rate with
    | None -> [||]
    | Some r -> Array.init count (fun i -> float_of_int i *. 1e6 /. r)
  in
  { n; count; kind; src; dst; arrival_us }

(* ---------------- CLI spellings ---------------- *)

let mix_to_string m =
  Printf.sprintf "greedy=%g,gfg=%g,compass=%g,stretch=%g" m.greedy m.gfg
    m.compass m.stretch

let mix_of_string s =
  let parts = String.split_on_char ',' s in
  let m = ref { greedy = 0.; gfg = 0.; compass = 0.; stretch = 0. } in
  let bad = ref None in
  List.iter
    (fun part ->
      let part = String.trim part in
      if part <> "" && !bad = None then
        match String.index_opt part '=' with
        | None -> bad := Some (Printf.sprintf "missing '=' in %S" part)
        | Some i -> (
          let key = String.sub part 0 i in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          match float_of_string_opt v with
          | None -> bad := Some (Printf.sprintf "bad weight %S" v)
          | Some w when w < 0. ->
            bad := Some (Printf.sprintf "negative weight %S" part)
          | Some w -> (
            match key with
            | "greedy" -> m := { !m with greedy = w }
            | "gfg" -> m := { !m with gfg = w }
            | "compass" -> m := { !m with compass = w }
            | "stretch" -> m := { !m with stretch = w }
            | _ -> bad := Some (Printf.sprintf "unknown scheme %S" key))))
    parts;
  match !bad with
  | Some e -> Error e
  | None ->
    let m = !m in
    if m.greedy +. m.gfg +. m.compass +. m.stretch <= 0. then
      Error "mix weights sum to zero"
    else Ok m

let skew_to_string = function
  | Uniform -> "uniform"
  | Zipf s -> Printf.sprintf "zipf:%g" s
  | Hotspot { nodes; frac } -> Printf.sprintf "hotspot:%g/%d" frac nodes

let skew_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ "uniform" ] -> Ok Uniform
  | [ "zipf"; e ] -> (
    match float_of_string_opt e with
    | Some e when e > 0. -> Ok (Zipf e)
    | _ -> Error (Printf.sprintf "bad zipf exponent %S" e))
  | [ "hotspot"; spec ] -> (
    match String.split_on_char '/' spec with
    | [ f; k ] -> (
      match float_of_string_opt f, int_of_string_opt k with
      | Some frac, Some nodes when frac >= 0. && frac <= 1. && nodes > 0 ->
        Ok (Hotspot { nodes; frac })
      | _ -> Error (Printf.sprintf "bad hotspot spec %S (want frac/nodes)" spec))
    | _ -> Error (Printf.sprintf "bad hotspot spec %S (want frac/nodes)" spec))
  | _ -> Error (Printf.sprintf "unknown skew %S" s)
