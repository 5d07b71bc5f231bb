(* Self time per span name.

   A span's self time is its duration minus the part of it that its
   child spans cover. Nesting is recovered by containment within one
   thread (domain), so the same code reads the in-process tracer and a
   Chrome trace written by another process. *)

type span = { name : string; tid : int; start_us : int; dur_us : int }

type total = { self_us : int; incl_us : int; count : int }

let of_trace () =
  List.map
    (fun (s : Qca_obs.Trace.span_record) ->
      {
        name = s.Qca_obs.Trace.s_name;
        tid = s.s_tid;
        start_us = s.s_ts_us;
        dur_us = s.s_dur_us;
      })
    (Qca_obs.Trace.spans ())

(* Complete ("ph":"X") events of a Chrome trace_event document. *)
let of_chrome_json text =
  let module J = Qca_obs.Json in
  match J.parse text with
  | Error e -> Error e
  | Ok doc ->
    let events = Option.value (J.arr_member "traceEvents" doc) ~default:[] in
    Ok
      (List.filter_map
         (fun ev ->
           match
             ( J.str_member "ph" ev,
               J.str_member "name" ev,
               J.num_member "ts" ev,
               J.num_member "dur" ev )
           with
           | Some "X", Some name, Some ts, Some dur ->
             let tid =
               Option.value (J.num_member "tid" ev) ~default:0.0
             in
             Some
               {
                 name;
                 tid = truncate tid;
                 start_us = truncate ts;
                 dur_us = truncate dur;
               }
           | _ -> None)
         events)

let self_times spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[]))
    spans;
  let totals = Hashtbl.create 32 in
  let add name ~self ~incl =
    let t =
      Option.value (Hashtbl.find_opt totals name)
        ~default:{ self_us = 0; incl_us = 0; count = 0 }
    in
    Hashtbl.replace totals name
      { self_us = t.self_us + self; incl_us = t.incl_us + incl; count = t.count + 1 }
  in
  Hashtbl.iter
    (fun _ thread ->
      (* parents sort before their children: earlier start, or the same
         start and a longer duration *)
      let sorted =
        List.sort
          (fun a b ->
            match compare a.start_us b.start_us with
            | 0 -> compare b.dur_us a.dur_us
            | c -> c)
          thread
      in
      (* stack of open ancestors with the child time charged so far *)
      let stack = ref [] in
      let close (s, child) = add s.name ~self:(s.dur_us - child) ~incl:s.dur_us in
      let rec pop_until_parent s =
        match !stack with
        | (p, _) :: _ when p.start_us + p.dur_us >= s.start_us + s.dur_us -> ()
        | top :: rest ->
          close top;
          stack := rest;
          pop_until_parent s
        | [] -> ()
      in
      List.iter
        (fun s ->
          pop_until_parent s;
          (match !stack with
          | (p, child) :: rest -> stack := (p, child + s.dur_us) :: rest
          | [] -> ());
          stack := (s, 0) :: !stack)
        sorted;
      List.iter close !stack)
    by_tid;
  totals

let find totals name =
  Option.value (Hashtbl.find_opt totals name)
    ~default:{ self_us = 0; incl_us = 0; count = 0 }

let self_ms totals name = float_of_int (find totals name).self_us /. 1000.0
let incl_ms totals name = float_of_int (find totals name).incl_us /. 1000.0
let count totals name = (find totals name).count

(* Summed self time and span count of the span names [keep] accepts. *)
let total_self ~keep totals =
  Hashtbl.fold
    (fun name t (ms, n) ->
      if keep name then (ms +. (float_of_int t.self_us /. 1000.0), n + t.count) else (ms, n))
    totals (0.0, 0)
