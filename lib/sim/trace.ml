type level = Debug | Info | Warn

type record = { time : float; level : level; component : string; message : string }

type t = { mutable sink : (record -> unit) option }

let create () = { sink = None }

let set_sink t f = t.sink <- Some f

let clear_sink t = t.sink <- None

let enabled t = t.sink <> None

let emit t ~time ~level ~component message =
  match t.sink with
  | None -> ()
  | Some sink -> sink { time; level; component; message }

let emitf t ~time ~level ~component fmt =
  match t.sink with
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Some sink ->
      Format.kasprintf
        (fun message -> sink { time; level; component; message })
        fmt

let memory_sink () =
  let records = ref [] in
  let sink r = records := r :: !records in
  (sink, fun () -> List.rev !records)

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
