(* Tests for the multicore metrics engine: the shared Heap, CSR
   snapshots against list oracles, the Domain pool, and the fused
   all-pairs stretch — including the bit-identity guarantee across
   worker counts and a regression against a verbatim copy of the
   implementation the engine replaced. *)

module C = Netgraph.Csr
module H = Netgraph.Heap
module M = Netgraph.Metrics
module P = Geometry.Point

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* deterministic pseudo-random stream, independent of stdlib Random *)
let mk_rand seed =
  let state = ref seed in
  fun () ->
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Int64.to_float (Int64.shift_right_logical !state 11) /. 9007199254740992.

(* ---------------- Heap ---------------- *)

let test_heap_sort () =
  let rand = mk_rand 1L in
  let h = H.create () in
  (* duplicate keys on purpose: draws from a 16-value set *)
  let keys = Array.init 500 (fun _ -> float_of_int (int_of_float (rand () *. 16.))) in
  Array.iteri (fun i k -> H.push h k i) keys;
  checki "length" 500 (H.length h);
  let out = ref [] in
  let rec drain () =
    match H.pop h with
    | Some (k, _) ->
      out := k :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  let popped = Array.of_list (List.rev !out) in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  check "pops keys in sorted order" true (popped = sorted);
  check "empty after drain" true (H.is_empty h)

let test_heap_interleaved () =
  let h = H.create ~capacity:2 () in
  H.push h 3. 30;
  H.push h 1. 10;
  checkf "min key" 1. (H.min_key h);
  checki "min value" 10 (H.min_value h);
  H.remove_min h;
  H.push h 2. 20;
  H.push h 0.5 5;
  check "pop order" true (H.pop h = Some (0.5, 5));
  check "pop order 2" true (H.pop h = Some (2., 20));
  check "pop order 3" true (H.pop h = Some (3., 30));
  check "pop empty" true (H.pop h = None);
  H.push h 9. 9;
  H.clear h;
  checki "cleared" 0 (H.length h);
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "min_key empty raises" true (raises (fun () -> ignore (H.min_key h)));
  check "min_value empty raises" true (raises (fun () -> ignore (H.min_value h)));
  check "remove_min empty raises" true (raises (fun () -> H.remove_min h))

(* ---------------- Graph neighbor iteration ---------------- *)

let test_graph_neighbor_iteration () =
  let g = C.of_edges 5 [ (0, 3); (0, 1); (2, 0) ] in
  let seen = ref [] in
  C.iter_neighbors g 0 (fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "iter order" [ 1; 2; 3 ] (List.rev !seen);
  checki "fold degree" 3 (C.fold_neighbors g 0 (fun acc _ -> acc + 1) 0);
  checki "fold sum" 6 (C.fold_neighbors g 0 (fun acc v -> acc + v) 0);
  checki "fold isolated" 0 (C.fold_neighbors g 4 (fun acc _ -> acc + 1) 0)

(* ---------------- CSR vs list oracles ---------------- *)

let random_udg seed ~n ~radius =
  let rng = Wireless.Rand.create seed in
  let pts = Wireless.Deploy.uniform rng ~n ~side:200. in
  (pts, Wireless.Udg.build pts ~radius)

(* hop distances by a queue over neighbor lists, independent of the
   CSR kernels *)
let reference_bfs g s =
  let dist = Array.make (C.node_count g) max_int in
  dist.(s) <- 0;
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (C.neighbors g u)
  done;
  dist

let reference_labels g =
  (* smallest-id component labels via repeated BFS, independent of
     both Components and Csr *)
  let n = C.node_count g in
  let label = Array.make n (-1) in
  for s = 0 to n - 1 do
    if label.(s) < 0 then
      Array.iteri
        (fun v d -> if d <> max_int then label.(v) <- s)
        (reference_bfs g s)
  done;
  label

(* the UDG kernel's rows against the graph sealed from the brute-force
   pair list *)
let test_csr_structure () =
  List.iter
    (fun seed ->
      let pts, c = random_udg seed ~n:60 ~radius:50. in
      let pairs = ref [] in
      for u = 0 to 59 do
        for v = u + 1 to 59 do
          if P.dist pts.(u) pts.(v) <= 50. then pairs := (u, v) :: !pairs
        done
      done;
      let g = Netgraph.Graph.of_edges 60 !pairs in
      check "equal" true (Netgraph.Graph.equal g c);
      checki "nodes" (C.node_count g) (C.node_count c);
      checki "edges" (C.edge_count g) (C.edge_count c);
      for u = 0 to C.node_count g - 1 do
        checki "degree" (C.degree g u) (C.degree c u);
        Alcotest.(check (list int))
          "neighbors" (C.neighbors g u) (C.neighbors c u);
        for v = 0 to C.node_count g - 1 do
          if u <> v then
            check "mem_edge" (C.mem_edge g u v) (C.mem_edge c u v)
        done
      done)
    [ 11L; 12L; 13L ]

let test_csr_traversals_exact () =
  List.iter
    (fun seed ->
      let pts, g = random_udg seed ~n:60 ~radius:50. in
      let c = C.with_weights ~beta:2. g pts in
      check "has weights" true (C.has_weights c);
      check "has power weights" true (C.has_power_weights c);
      let euclid u v = P.dist pts.(u) pts.(v) in
      let power_cost u v = P.dist pts.(u) pts.(v) ** 2. in
      for s = 0 to C.node_count g - 1 do
        check "bfs exact" true (C.bfs c s = reference_bfs g s);
        (* float distances must match bit for bit, not approximately *)
        check "dijkstra exact" true
          (C.dijkstra c s = M.weighted_sssp g euclid s);
        check "power exact" true
          (C.power_sssp c s = M.weighted_sssp g power_cost s);
        (* stopped at each target, the target's distance is the same
           float *)
        let full = C.dijkstra c s in
        let heap = Netgraph.Heap.create () and dist = Array.make 60 0. in
        for d = 0 to C.node_count g - 1 do
          C.dijkstra_to c ~heap ~dist s d;
          check "dijkstra_to exact" true (Float.equal dist.(d) full.(d))
        done
      done)
    [ 21L; 22L ]

let test_csr_weightless_raises () =
  let c = C.of_edges 2 [ (0, 1) ] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "dijkstra needs weights" true (raises (fun () -> ignore (C.dijkstra c 0)));
  check "power needs beta" true
    (raises (fun () ->
         ignore (C.power_sssp (C.with_weights c [| P.make 0. 0.; P.make 1. 0. |]) 0)))

let test_csr_components () =
  List.iter
    (fun seed ->
      let _, c = random_udg seed ~n:50 ~radius:25. in
      let labels = reference_labels c in
      check "labels" true (C.component_labels c = labels);
      check "connectivity" true
        (C.is_connected c = Array.for_all (fun l -> l = 0) labels);
      check "count agrees" true
        (Netgraph.Components.count c
        = List.length (List.sort_uniq compare (Array.to_list labels))))
    [ 31L; 32L; 33L ]

(* ---------------- Pool ---------------- *)

let test_pool_parallel_for () =
  List.iter
    (fun jobs ->
      let n = 1000 in
      let out = Array.make n (-1) in
      Netgraph.Pool.with_pool ~jobs (fun pool ->
          Netgraph.Pool.parallel_for pool ~n (fun () i -> out.(i) <- i * i));
      check
        (Printf.sprintf "all indices done (jobs %d)" jobs)
        true
        (Array.for_all (fun x -> x >= 0) out);
      for i = 0 to n - 1 do
        if out.(i) <> i * i then Alcotest.failf "slot %d wrong" i
      done)
    [ 1; 2; 4 ]

let test_pool_exception () =
  let got =
    try
      Netgraph.Pool.with_pool ~jobs:4 (fun pool ->
          Netgraph.Pool.parallel_for pool ~n:100 (fun () i ->
              if i >= 37 then failwith (string_of_int i)));
      None
    with Failure msg -> Some msg
  in
  (* the smallest failing index wins, independent of scheduling *)
  check "smallest index re-raised" true (got = Some "37")

let test_pool_reuse () =
  Netgraph.Pool.with_pool ~jobs:2 (fun pool ->
      checki "jobs" 2 (Netgraph.Pool.jobs pool);
      let a = Array.make 10 0 and b = Array.make 10 0 in
      Netgraph.Pool.parallel_for pool ~n:10 (fun () i -> a.(i) <- i);
      Netgraph.Pool.parallel_for pool ~n:10 (fun () i -> b.(i) <- a.(i) + 1);
      check "second job sees first" true (Array.for_all2 (fun x y -> y = x + 1) a b))

(* At n = 10^5 a claim is a chunk of n / (64 * jobs) indices, so these
   exercise chunk boundaries that the small loops above never reach. *)
let big_n = 100_000

let test_pool_chunks_once () =
  List.iter
    (fun jobs ->
      let runs = Array.make big_n 0 in
      Netgraph.Pool.with_pool ~jobs (fun pool ->
          Netgraph.Pool.parallel_for pool ~n:big_n (fun () i ->
              runs.(i) <- runs.(i) + 1));
      check
        (Printf.sprintf "every index once (jobs %d)" jobs)
        true
        (Array.for_all (fun c -> c = 1) runs))
    [ 1; 2; 4 ]

let test_pool_chunks_failure () =
  (* failures in several chunks, none on a chunk boundary, the
     smallest two sharing a chunk at every job count *)
  let failing = [ 99_001; 61_237; 31_337; 31_339; 75_013 ] in
  List.iter
    (fun jobs ->
      let ran = Array.make big_n false in
      let got =
        try
          Netgraph.Pool.with_pool ~jobs (fun pool ->
              Netgraph.Pool.parallel_for pool ~n:big_n (fun () i ->
                  ran.(i) <- true;
                  if List.mem i failing then failwith (string_of_int i)));
          None
        with Failure msg -> Some msg
      in
      check
        (Printf.sprintf "smallest failing index (jobs %d)" jobs)
        true (got = Some "31337");
      check
        (Printf.sprintf "indices after a failure still run (jobs %d)" jobs)
        true
        (Array.for_all Fun.id ran))
    [ 1; 2; 4 ]

let test_pool_chunks_slots () =
  List.iter
    (fun jobs ->
      let caller = Domain.self () in
      let slot_of = Array.make big_n (-1) in
      let on_caller = Array.make big_n false in
      Netgraph.Pool.with_pool ~jobs (fun pool ->
          Netgraph.Pool.parallel_for_slots pool ~n:big_n (fun ~slot i ->
              slot_of.(i) <- slot;
              on_caller.(i) <- Domain.self () = caller));
      let ok = ref true in
      Array.iteri
        (fun i s ->
          if s < 0 || s >= jobs || (s = 0) <> on_caller.(i) then ok := false)
        slot_of;
      check (Printf.sprintf "slot 0 is the caller (jobs %d)" jobs) true !ok)
    [ 1; 2; 4 ]

(* ---------------- The fused engine vs its predecessor ---------------- *)

(* Verbatim copy of the replaced implementation: one pass per metric,
   neighbor lists, a settled array — the reference the fused engine
   must reproduce. *)
module Reference = struct
  let sssp g cost s =
    let n = C.node_count g in
    let dist = Array.make n infinity in
    let settled = Array.make n false in
    dist.(s) <- 0.;
    let h = H.create () in
    H.push h 0. s;
    let rec loop () =
      match H.pop h with
      | None -> ()
      | Some (d, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          List.iter
            (fun v ->
              let nd = d +. cost u v in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                H.push h nd v
              end)
            (C.neighbors g u)
        end;
        loop ()
    in
    loop ();
    dist

  let generic_stretch ~one_hop_direct ~base ~sub sssp to_float =
    let n = C.node_count base in
    let sum = ref 0. and maxr = ref 0. and pairs = ref 0 in
    for s = 0 to n - 1 do
      let db = sssp base s in
      let ds = sssp sub s in
      for t = s + 1 to n - 1 do
        if one_hop_direct && C.mem_edge base s t then begin
          sum := !sum +. 1.;
          if !maxr < 1. then maxr := 1.;
          incr pairs
        end
        else
          match (to_float db.(t), to_float ds.(t)) with
          | None, _ -> ()
          | Some _, None -> failwith "disconnected"
          | Some b, Some sb ->
            if b > 0. then begin
              let r = sb /. b in
              sum := !sum +. r;
              if r > !maxr then maxr := r;
              incr pairs
            end
      done
    done;
    if !pairs = 0 then (1., 1.) else (!sum /. float_of_int !pairs, !maxr)

  let stretch ~one_hop_direct ~base ~sub points =
    let float_dist d = if d = infinity then None else Some d in
    let hop_dist d = if d = max_int then None else Some (float_of_int d) in
    let euclid u v = P.dist points.(u) points.(v) in
    let len = generic_stretch ~one_hop_direct ~base ~sub
        (fun g s -> sssp g euclid s) float_dist
    in
    let hop = generic_stretch ~one_hop_direct ~base ~sub
        (fun g s -> reference_bfs g s) hop_dist
    in
    (len, hop)

  let power ~one_hop_direct ~base ~sub points ~beta =
    let cost u v = P.dist points.(u) points.(v) ** beta in
    let to_float d = if d = infinity then None else Some d in
    generic_stretch ~one_hop_direct ~base ~sub (fun g s -> sssp g cost s)
      to_float
end

let backbone_instance seed =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n:80 ~side:200. ~radius:50.
      ~max_attempts:2000
  in
  let bb = Core.Backbone.build pts ~radius:50. in
  (pts, bb.Core.Backbone.udg,
   bb.Core.Backbone.snap.Core.Shard.pldel')

(* maxima are grouping-insensitive, so they must match exactly;
   averages may differ from the reference only in float-sum grouping *)
let check_pair name ((ra, rm) : float * float) ((fa, fm) : float * float) =
  check (name ^ " max exact") true (rm = fm);
  checkf (name ^ " avg") ra fa

let test_engine_vs_reference () =
  List.iter
    (fun seed ->
      let pts, base, sub = backbone_instance seed in
      List.iter
        (fun one_hop_direct ->
          let (rl, rh) = Reference.stretch ~one_hop_direct ~base ~sub pts in
          let s = M.stretch_factors ~one_hop_direct ~base ~sub pts in
          check_pair "len" rl (s.M.len_avg, s.M.len_max);
          check_pair "hop" rh (s.M.hop_avg, s.M.hop_max);
          let rp = Reference.power ~one_hop_direct ~base ~sub pts ~beta:2. in
          check_pair "power"
            rp
            (M.power_stretch ~one_hop_direct ~base ~sub pts ~beta:2.))
        [ true; false ])
    [ 101L; 102L ]

let test_engine_jobs_bit_identical () =
  let pts, base, sub = backbone_instance 103L in
  let run jobs =
    ( M.stretch_factors ~jobs ~base ~sub pts,
      M.combined_stretch ~jobs ~beta:2. ~base pts [ ("sub", sub) ] )
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  (* structural equality on the full result records: every float must
     be bit-identical whatever the worker count *)
  check "jobs 2 = jobs 1" true (r2 = r1);
  check "jobs 4 = jobs 1" true (r4 = r1)

let test_combined_equals_individual () =
  let pts, base, sub = backbone_instance 104L in
  match M.combined_stretch ~beta:2. ~base pts [ ("sub", sub) ] with
  | [ (name, c) ] ->
    check "name" true (name = "sub");
    let s = M.stretch_factors ~base ~sub pts in
    check "stretch exact" true (c.M.c_stretch = s);
    let p = M.power_stretch ~base ~sub pts ~beta:2. in
    check "power exact" true (c.M.c_power = Some p)
  | _ -> Alcotest.fail "expected one result"

let test_combined_multiple_subs () =
  let pts, base, sub = backbone_instance 105L in
  (* measuring the base against itself alongside another sub: the base
     rows must come out exactly 1, and the other sub must match its
     individually computed stretch *)
  match M.combined_stretch ~base pts [ ("id", base); ("sub", sub) ] with
  | [ (_, cid); (_, csub) ] ->
    checkf "identity len" 1. cid.M.c_stretch.M.len_max;
    checkf "identity hop" 1. cid.M.c_stretch.M.hop_max;
    check "shared base pass exact" true
      (csub.M.c_stretch = M.stretch_factors ~base ~sub pts)
  | _ -> Alcotest.fail "expected two results"

let test_engine_disconnected_raises () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 2. 0. |] in
  let base = C.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let sub = C.of_edges 3 [ (0, 1) ] in
  let got =
    try
      ignore (M.stretch_factors ~one_hop_direct:false ~jobs:2 ~base ~sub pts);
      None
    with Invalid_argument msg -> Some msg
  in
  check "raises with the first offending pair" true
    (got
    = Some
        "Metrics.stretch_factors: pair (0, 2) connected in base but not in \
         subgraph")

(* An edgeless snapshot sealed with points has nothing to weigh; it
   must count as weighted, so stretch over it is the no-pair value
   instead of a "built without points" failure.  Fixtures: one node,
   and three nodes 10 apart at R = 1.2. *)
let edgeless_fixtures =
  [
    ("one node", [| P.make 0. 0. |]);
    ("three isolated", [| P.make 0. 0.; P.make 10. 0.; P.make 20. 0. |]);
  ]

let test_edgeless_weighted () =
  List.iter
    (fun (name, pts) ->
      let g = Wireless.Udg.build pts ~radius:1.2 in
      checki (name ^ ": no edges") 0 (C.edge_count g);
      let c = C.with_weights ~beta:2. g pts in
      check (name ^ ": weighted") true (C.has_weights c);
      check (name ^ ": power weighted") true (C.has_power_weights c);
      checkf (name ^ ": dijkstra") 0. (C.dijkstra c 0).(0);
      checkf (name ^ ": power sssp") 0. (C.power_sssp c 0).(0);
      let no_pair =
        { M.len_avg = 1.; len_max = 1.; hop_avg = 1.; hop_max = 1. }
      in
      check (name ^ ": stretch_factors") true
        (M.stretch_factors ~base:g ~sub:g pts = no_pair);
      check (name ^ ": sampled_stretch") true
        (M.sampled_stretch ~sources:[| 0 |] ~base:g ~sub:g pts = no_pair);
      check (name ^ ": power_stretch") true
        (M.power_stretch ~base:g ~sub:g pts ~beta:2. = (1., 1.)))
    edgeless_fixtures

(* ---------------- the UDG against its definition ---------------- *)

(* [g] is the UDG of range [radius] over [pts] by the definition: every
   pair with [P.dist <= radius] linked, no other link *)
let brute_force_udg pts ~radius g =
  let n = Array.length pts in
  C.node_count g = n
  &&
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if P.dist pts.(u) pts.(v) <= radius <> C.mem_edge g u v then ok := false
    done
  done;
  !ok

(* A graph is the UDG exactly when it equals [Udg.build]: the kernel
   meets the definition, and [C.equal] against it rejects a missing or
   an extra edge and agrees with the definition on mangled graphs *)
let test_udg_equal_brute_force () =
  List.iter
    (fun seed ->
      let radius = 40. in
      let pts, g = random_udg seed ~n:50 ~radius in
      check "kernel = definition" true (brute_force_udg pts ~radius g);
      let is_the_udg h = C.equal h (Wireless.Udg.build pts ~radius) in
      check "built UDG verifies" true (is_the_udg g);
      (match C.edges g with
      | _ :: rest ->
        check "missing edge detected" false (is_the_udg (C.of_edges 50 rest))
      | [] -> ());
      let far = ref None in
      for u = 0 to 49 do
        for v = u + 1 to 49 do
          if !far = None && P.dist pts.(u) pts.(v) > radius then
            far := Some (u, v)
        done
      done;
      (match !far with
      | Some (u, v) ->
        check "extra edge detected" false
          (is_the_udg (C.of_edges 50 ((u, v) :: C.edges g)))
      | None -> ());
      let rand = mk_rand seed in
      let toggled =
        List.fold_left
          (fun es () ->
            let u = int_of_float (rand () *. 50.) in
            let v = int_of_float (rand () *. 50.) in
            let e = (min u v, max u v) in
            if u = v then es
            else if List.mem e es then List.filter (fun x -> x <> e) es
            else e :: es)
          (C.edges g) [ (); (); () ]
      in
      let mangled = C.of_edges 50 toggled in
      check "matches brute force" (brute_force_udg pts ~radius mangled)
        (is_the_udg mangled))
    [ 41L; 42L; 43L ]

let test_udg_degenerate () =
  let empty n = C.of_edges n [] in
  check "empty" true (C.equal (Wireless.Udg.build [||] ~radius:1.) (empty 0));
  let one = [| P.make 0. 0. |] in
  check "singleton" true (C.equal (Wireless.Udg.build one ~radius:1.) (empty 1));
  check "node count mismatch" false
    (C.equal (Wireless.Udg.build one ~radius:1.) (empty 2));
  (* radius 0 is no transmission range: the kernel and the quasi radio
     both reject it rather than build a graph *)
  let pts = [| P.make 0. 0.; P.make 1. 0. |] in
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "radius 0 rejected" true
    (rejects (fun () -> Wireless.Udg.build pts ~radius:0.));
  check "quasi radius 0 rejected" true
    (rejects (fun () ->
         Wireless.Udg.build_quasi (Wireless.Rand.create 1L) pts ~r_min:0.
           ~r_max:0.))

(* R equal to a pair's own distance, where a squared-distance test and
   [P.dist]'s sqrt can round apart: the kernel links every such pair,
   and so does the quasi radio at r_min = r_max = R, whose graph is
   then exactly the UDG *)
let test_udg_at_radius () =
  let rand = mk_rand 44L in
  for i = 1 to 400 do
    let pts =
      Array.init 3 (fun _ -> P.make (100. *. rand ()) (100. *. rand ()))
    in
    let radius = P.dist pts.(0) pts.(1) in
    let g = Wireless.Udg.build pts ~radius in
    check "linked at R = distance" true (C.mem_edge g 0 1);
    check "kernel = definition" true (brute_force_udg pts ~radius g);
    let q =
      Wireless.Udg.build_quasi
        (Wireless.Rand.create (Int64.of_int i))
        pts ~r_min:radius ~r_max:radius
    in
    check "quasi linked at r_min = r_max = distance" true (C.mem_edge q 0 1);
    check "quasi at r_min = r_max = UDG" true (C.equal q g)
  done

let suites =
  [
    ( "netgraph.heap",
      [
        Alcotest.test_case "heap sort with duplicates" `Quick test_heap_sort;
        Alcotest.test_case "interleaved push/pop" `Quick test_heap_interleaved;
      ] );
    ( "netgraph.graph.neighbors",
      [ Alcotest.test_case "iter/fold" `Quick test_graph_neighbor_iteration ] );
    ( "netgraph.csr",
      [
        Alcotest.test_case "structure mirrors Graph" `Quick test_csr_structure;
        Alcotest.test_case "traversals bit-identical" `Quick
          test_csr_traversals_exact;
        Alcotest.test_case "weightless snapshots raise" `Quick
          test_csr_weightless_raises;
        Alcotest.test_case "component labels" `Quick test_csr_components;
      ] );
    ( "netgraph.pool",
      [
        Alcotest.test_case "parallel_for covers all indices" `Quick
          test_pool_parallel_for;
        Alcotest.test_case "smallest-index exception wins" `Quick
          test_pool_exception;
        Alcotest.test_case "pool reuse across jobs" `Quick test_pool_reuse;
        Alcotest.test_case "chunked claims: every index once" `Quick
          test_pool_chunks_once;
        Alcotest.test_case "chunked claims: smallest failure" `Quick
          test_pool_chunks_failure;
        Alcotest.test_case "chunked claims: slot 0 on caller" `Quick
          test_pool_chunks_slots;
      ] );
    ( "netgraph.metrics.engine",
      [
        Alcotest.test_case "matches the replaced implementation" `Quick
          test_engine_vs_reference;
        Alcotest.test_case "jobs 1/2/4 bit-identical" `Quick
          test_engine_jobs_bit_identical;
        Alcotest.test_case "combined = individual calls" `Quick
          test_combined_equals_individual;
        Alcotest.test_case "multiple subs share the base pass" `Quick
          test_combined_multiple_subs;
        Alcotest.test_case "disconnected sub raises" `Quick
          test_engine_disconnected_raises;
        Alcotest.test_case "edgeless snapshots are weighted" `Quick
          test_edgeless_weighted;
      ] );
    ( "wireless.udg_oracle",
      [
        Alcotest.test_case "kernel = brute force" `Quick
          test_udg_equal_brute_force;
        Alcotest.test_case "degenerate inputs" `Quick test_udg_degenerate;
        Alcotest.test_case "radius at a pair's distance" `Quick
          test_udg_at_radius;
      ] );
  ]
