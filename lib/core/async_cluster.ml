module AE = Distsim.Async_engine

type msg = Decided of bool

type state = {
  mutable decided : bool option;  (* my role, once fixed *)
  mutable waiting_on : int;  (* smaller-ID neighbors yet to announce *)
  mutable smaller_dominator : bool;  (* some smaller neighbor is a dominator *)
}

let run ~delay udg =
  let proto =
    {
      AE.init =
        (fun me nbrs ->
          {
            decided = None;
            waiting_on =
              Array.fold_left (fun c v -> if v < me then c + 1 else c) 0 nbrs;
            smaller_dominator = false;
          });
      AE.on_start =
        (fun ctx st ->
          if st.waiting_on = 0 then begin
            (* local minimum: dominator immediately *)
            st.decided <- Some true;
            ctx.AE.broadcast (Decided true)
          end;
          st);
      AE.on_message =
        (fun ctx st d ->
          let (Decided is_dominator) = d.AE.msg in
          if d.AE.from < ctx.AE.me && st.decided = None then begin
            st.waiting_on <- st.waiting_on - 1;
            if is_dominator then st.smaller_dominator <- true;
            if st.waiting_on = 0 then begin
              let me_dominator = not st.smaller_dominator in
              st.decided <- Some me_dominator;
              ctx.AE.broadcast (Decided me_dominator)
            end
          end;
          st);
    }
  in
  let classify = function
    | Decided true -> "IamDominator"
    | Decided false -> "IamDominatee"
  in
  let states, stats = AE.run ~classify ~delay udg proto in
  let roles =
    Array.map
      (fun st ->
        match st.decided with
        | Some true -> Mis.Dominator
        | Some false -> Mis.Dominatee
        | None -> assert false (* the dependency order is acyclic *))
      states
  in
  (roles, stats)
